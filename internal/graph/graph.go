// Package graph provides the graph substrate shared by the MST, SP and
// MSP applications: geometric random graph generation, the paper's
// home/border-node partitioning, and sequential baselines (Kruskal,
// Dijkstra) against which the parallel codes are verified.
//
// The input class follows §3.3: "Nodes are assigned uniformly at random
// to points on the unit square. Now construct a graph G(r) on the nodes
// by adding an edge between all nodes within distance r. The graph G is
// G(δ) where δ is the minimum value such that G(δ) is a single connected
// component. The weight assigned to edge (u,v) is the distance between
// the points corresponding to u and v."
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is an undirected weighted graph in compressed sparse row form.
// Every undirected edge appears in both endpoints' adjacency lists.
type Graph struct {
	// N is the number of nodes.
	N int
	// Off has N+1 entries; node u's neighbors are Adj[Off[u]:Off[u+1]].
	Off []int32
	// Adj holds neighbor node ids.
	Adj []int32
	// W holds edge weights parallel to Adj.
	W []float64
	// X, Y are the node coordinates on the unit square.
	X, Y []float64
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int32) int { return int(g.Off[u+1] - g.Off[u]) }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return len(g.Adj) / 2 }

// Neighbors returns node u's adjacency slice and parallel weights.
func (g *Graph) Neighbors(u int32) ([]int32, []float64) {
	return g.Adj[g.Off[u]:g.Off[u+1]], g.W[g.Off[u]:g.Off[u+1]]
}

// Edge is one undirected edge.
type Edge struct {
	U, V int32
	W    float64
}

// EdgeList returns each undirected edge once (U < V), in adjacency
// order.
func (g *Graph) EdgeList() []Edge {
	edges := make([]Edge, 0, g.Edges())
	for u := int32(0); u < int32(g.N); u++ {
		adj, w := g.Neighbors(u)
		for k, v := range adj {
			if u < v {
				edges = append(edges, Edge{U: u, V: v, W: w[k]})
			}
		}
	}
	return edges
}

// Geometric generates the paper's input class: n uniformly random points
// on the unit square connected at the connectivity threshold δ (the
// minimum radius producing a single connected component). The
// construction is deterministic in seed.
func Geometric(n int, seed int64) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: Geometric with n=%d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	delta := connectivityThreshold(x, y)
	return buildRadius(x, y, delta)
}

// connectivityThreshold finds δ: doubling search for a connected radius,
// then bisection to relative precision 1e-3. The returned radius is
// guaranteed to produce a connected graph.
func connectivityThreshold(x, y []float64) float64 {
	n := len(x)
	if n == 1 {
		return 0
	}
	r := math.Sqrt(1.0 / float64(n))
	for !connectedAt(x, y, r) {
		r *= 2
		if r > 2 { // diameter of the unit square is sqrt(2)
			return 2
		}
	}
	lo, hi := r/2, r
	for i := 0; i < 30 && (hi-lo) > 1e-3*hi; i++ {
		mid := (lo + hi) / 2
		if connectedAt(x, y, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// cellGrid buckets points into square cells of side r for neighborhood
// queries.
type cellGrid struct {
	r     float64
	cols  int
	cells map[int][]int32
}

func newCellGrid(x, y []float64, r float64) *cellGrid {
	cols := int(1/r) + 1
	g := &cellGrid{r: r, cols: cols, cells: make(map[int][]int32)}
	for i := range x {
		c := g.cellOf(x[i], y[i])
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

func (g *cellGrid) cellOf(x, y float64) int {
	cx := int(x / g.r)
	cy := int(y / g.r)
	return cy*g.cols + cx
}

// visitNear calls fn for every point within distance r of point i with a
// larger index (each pair visited once).
func (g *cellGrid) visitNear(x, y []float64, i int32, fn func(j int32, d float64)) {
	cx := int(x[i] / g.r)
	cy := int(y[i] / g.r)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= g.cols || ny >= g.cols {
				continue
			}
			for _, j := range g.cells[ny*g.cols+nx] {
				if j <= i {
					continue
				}
				d := math.Hypot(x[i]-x[j], y[i]-y[j])
				if d <= g.r {
					fn(j, d)
				}
			}
		}
	}
}

func connectedAt(x, y []float64, r float64) bool {
	n := len(x)
	grid := newCellGrid(x, y, r)
	uf := NewUnionFind(n)
	comps := n
	for i := int32(0); i < int32(n); i++ {
		grid.visitNear(x, y, i, func(j int32, d float64) {
			if uf.Union(int(i), int(j)) {
				comps--
			}
		})
	}
	return comps == 1
}

// buildRadius constructs G(r) in CSR form.
func buildRadius(x, y []float64, r float64) *Graph {
	n := len(x)
	grid := newCellGrid(x, y, r)
	type half struct {
		u, v int32
		w    float64
	}
	var pairs []half
	for i := int32(0); i < int32(n); i++ {
		grid.visitNear(x, y, i, func(j int32, d float64) {
			pairs = append(pairs, half{i, j, d})
		})
	}
	deg := make([]int32, n+1)
	for _, e := range pairs {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g := &Graph{
		N: n, Off: deg,
		Adj: make([]int32, 2*len(pairs)),
		W:   make([]float64, 2*len(pairs)),
		X:   x, Y: y,
	}
	pos := make([]int32, n)
	for _, e := range pairs {
		pu := g.Off[e.u] + pos[e.u]
		g.Adj[pu], g.W[pu] = e.v, e.w
		pos[e.u]++
		pv := g.Off[e.v] + pos[e.v]
		g.Adj[pv], g.W[pv] = e.u, e.w
		pos[e.v]++
	}
	return g
}

// Validate checks CSR structural invariants; it is used by the property
// tests.
func (g *Graph) Validate() error {
	if len(g.Off) != g.N+1 {
		return fmt.Errorf("graph: Off length %d, want %d", len(g.Off), g.N+1)
	}
	if g.Off[0] != 0 || int(g.Off[g.N]) != len(g.Adj) || len(g.Adj) != len(g.W) {
		return fmt.Errorf("graph: inconsistent CSR extents")
	}
	if !sort.SliceIsSorted(g.Off, func(i, j int) bool { return g.Off[i] < g.Off[j] }) {
		// Equal consecutive offsets (isolated nodes) are fine; only
		// decreasing offsets are structural corruption.
		for i := 0; i < g.N; i++ {
			if g.Off[i] > g.Off[i+1] {
				return fmt.Errorf("graph: Off decreases at %d", i)
			}
		}
	}
	// Symmetry: every (u,v,w) must have a matching (v,u,w).
	type key struct {
		u, v int32
	}
	seen := make(map[key]float64, len(g.Adj))
	for u := int32(0); u < int32(g.N); u++ {
		adj, w := g.Neighbors(u)
		for k, v := range adj {
			if v < 0 || v >= int32(g.N) || v == u {
				return fmt.Errorf("graph: bad neighbor %d of %d", v, u)
			}
			seen[key{u, v}] = w[k]
		}
	}
	for k, w := range seen {
		if w2, ok := seen[key{k.v, k.u}]; !ok || w2 != w {
			return fmt.Errorf("graph: asymmetric edge (%d,%d)", k.u, k.v)
		}
	}
	return nil
}
