package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometricBasics(t *testing.T) {
	for _, n := range []int{1, 2, 10, 200, 1000} {
		g := Geometric(n, 42)
		if g.N != n {
			t.Fatalf("n=%d: N = %d", n, g.N)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 1 && !connected(g) {
			t.Errorf("n=%d: graph at the connectivity threshold must be connected", n)
		}
	}
}

func TestGeometricDeterministic(t *testing.T) {
	a := Geometric(300, 7)
	b := Geometric(300, 7)
	if a.Edges() != b.Edges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.Edges(), b.Edges())
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] || a.W[i] != b.W[i] {
			t.Fatal("same seed, different adjacency")
		}
	}
	c := Geometric(300, 8)
	if c.Edges() == a.Edges() && func() bool {
		for i := range a.X {
			if a.X[i] != c.X[i] {
				return false
			}
		}
		return true
	}() {
		t.Error("different seeds produced identical point sets")
	}
}

func TestGeometricNearThreshold(t *testing.T) {
	// δ is minimal: edges are within distance δ, and the average degree
	// should be modest (Θ(log n) at the threshold), not dense.
	g := Geometric(2000, 1)
	avgDeg := float64(2*g.Edges()) / float64(g.N)
	if avgDeg < 2 || avgDeg > 60 {
		t.Errorf("average degree %.1f outside plausible threshold range", avgDeg)
	}
	// All edge weights are genuine distances in (0, sqrt 2].
	for u := int32(0); u < int32(g.N); u++ {
		adj, w := g.Neighbors(u)
		for k, v := range adj {
			d := math.Hypot(g.X[u]-g.X[v], g.Y[u]-g.Y[v])
			if math.Abs(d-w[k]) > 1e-12 {
				t.Fatalf("edge (%d,%d): weight %g != distance %g", u, v, w[k], d)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Count() != 6 {
		t.Fatalf("Count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(0, 2) {
		t.Fatal("fresh unions should report true")
	}
	if uf.Union(1, 3) {
		t.Fatal("redundant union should report false")
	}
	if uf.Count() != 3 {
		t.Fatalf("Count = %d, want 3", uf.Count())
	}
	if !uf.Same(1, 2) || uf.Same(0, 4) {
		t.Fatal("Same is wrong")
	}
}

func TestQuickUnionFindMatchesNaive(t *testing.T) {
	f := func(ops []uint16, nSeed uint8) bool {
		n := int(nSeed)%20 + 2
		uf := NewUnionFind(n)
		naive := make([]int, n) // component labels
		for i := range naive {
			naive[i] = i
		}
		for _, op := range ops {
			a, b := int(op>>8)%n, int(op&0xFF)%n
			fresh := uf.Union(a, b)
			if fresh != (naive[a] != naive[b]) {
				return false
			}
			if naive[a] != naive[b] {
				old, nw := naive[b], naive[a]
				for i := range naive {
					if naive[i] == old {
						naive[i] = nw
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistHeap(t *testing.T) {
	var h DistHeap
	rng := rand.New(rand.NewSource(3))
	const n = 500
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
		h.Push(vals[i], int32(i))
	}
	prev := -1.0
	for i := 0; i < n; i++ {
		d, _ := h.Pop()
		if d < prev {
			t.Fatalf("heap order violated: %g after %g", d, prev)
		}
		prev = d
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty the heap")
	}
}

func TestKruskalAgainstPrim(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := Geometric(400, seed)
		kw, ke := KruskalMST(g)
		pw, pe := primMST(g)
		if ke != g.N-1 || pe != g.N-1 {
			t.Fatalf("seed %d: MST edge counts %d/%d, want %d", seed, ke, pe, g.N-1)
		}
		if math.Abs(kw-pw) > 1e-9 {
			t.Errorf("seed %d: Kruskal %.12f vs Prim %.12f", seed, kw, pw)
		}
	}
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := Geometric(250, seed)
		for _, src := range []int32{0, int32(g.N / 2)} {
			d1 := Dijkstra(g, src)
			d2 := bellmanFord(g, src)
			for v := range d1 {
				if math.Abs(d1[v]-d2[v]) > 1e-9 {
					t.Fatalf("seed %d src %d: dist[%d] = %g vs %g", seed, src, v, d1[v], d2[v])
				}
			}
		}
	}
}

func TestMultiDijkstra(t *testing.T) {
	g := Geometric(150, 9)
	srcs := []int32{0, 5, 17}
	all := MultiDijkstra(g, srcs)
	for i, s := range srcs {
		want := Dijkstra(g, s)
		for v := range want {
			if all[i][v] != want[v] {
				t.Fatalf("source %d: mismatch at node %d", s, v)
			}
		}
	}
}

func TestPartitionStrips(t *testing.T) {
	g := Geometric(1000, 11)
	for _, p := range []int{1, 2, 4, 7, 8} {
		pt := PartitionStrips(g, p)
		if got := pt.Imbalance(); got > 1.02 {
			t.Errorf("p=%d: node imbalance %.3f, want near 1", p, got)
		}
		checkPartition(t, g, pt)
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	g := Geometric(300, 13)
	owner := make([]int32, g.N)
	for i := range owner {
		owner[i] = int32(i % 3)
	}
	checkPartition(t, g, PartitionByOwner(g, 3, owner))
}

func TestPartitionAllOnOne(t *testing.T) {
	g := Geometric(100, 17)
	owner := make([]int32, g.N) // all on process 0
	pt := PartitionByOwner(g, 2, owner)
	if pt.Parts[0].NHome != g.N || pt.Parts[1].NHome != 0 {
		t.Fatal("degenerate ownership mishandled")
	}
	if len(pt.Parts[0].BorderOwner) != 0 {
		t.Fatal("no border nodes expected when one process owns everything")
	}
	checkPartition(t, g, pt)
}

// checkPartition verifies the structural invariants of the home/border
// scheme: every node is home exactly once; each part's local adjacency
// mirrors the global graph; border ownership and ghost lists agree with
// the global ownership.
func checkPartition(t *testing.T, g *Graph, pt *Partition) {
	t.Helper()
	homes := make([]int, g.N)
	for _, part := range pt.Parts {
		for i := 0; i < part.NHome; i++ {
			homes[part.Global[i]]++
		}
	}
	for u, c := range homes {
		if c != 1 {
			t.Fatalf("node %d is home on %d parts", u, c)
		}
	}
	for _, part := range pt.Parts {
		for i := int32(0); i < int32(part.NHome); i++ {
			u := part.Global[i]
			adj, w := part.Neighbors(i)
			gadj, gw := g.Neighbors(u)
			if len(adj) != len(gadj) {
				t.Fatalf("part %d node %d: degree %d, want %d", part.ID, u, len(adj), len(gadj))
			}
			for k := range adj {
				if part.Global[adj[k]] != gadj[k] || w[k] != gw[k] {
					t.Fatalf("part %d node %d: adjacency mismatch at %d", part.ID, u, k)
				}
				if !part.IsHome(adj[k]) {
					b := int(adj[k]) - part.NHome
					if part.BorderOwner[b] != pt.Owner[gadj[k]] {
						t.Fatalf("part %d: border owner mismatch for node %d", part.ID, gadj[k])
					}
				}
			}
			// Ghost list = owners of remote neighbors.
			want := make(map[int32]bool)
			for _, v := range gadj {
				if pt.Owner[v] != int32(part.ID) {
					want[pt.Owner[v]] = true
				}
			}
			if len(want) != len(part.Ghosts[i]) {
				t.Fatalf("part %d node %d: ghost list size %d, want %d", part.ID, u, len(part.Ghosts[i]), len(want))
			}
			for _, q := range part.Ghosts[i] {
				if !want[q] {
					t.Fatalf("part %d node %d: spurious ghost proc %d", part.ID, u, q)
				}
			}
		}
		// LocalOf agrees with Global.
		for l, gid := range part.Global {
			got, ok := part.LocalOf(gid)
			if !ok || got != int32(l) {
				t.Fatalf("part %d: LocalOf(%d) = %d,%v", part.ID, gid, got, ok)
			}
		}
	}
}

func TestEdgeListHalves(t *testing.T) {
	g := Geometric(200, 21)
	list := g.EdgeList()
	if len(list) != g.Edges() {
		t.Fatalf("EdgeList length %d, want %d", len(list), g.Edges())
	}
	for _, e := range list {
		if e.U >= e.V {
			t.Fatalf("edge (%d,%d) not normalized", e.U, e.V)
		}
	}
}

// connected reports whether g is a single connected component.
func connected(g *Graph) bool {
	if g.N == 0 {
		return true
	}
	uf := NewUnionFind(g.N)
	comps := g.N
	for u := int32(0); u < int32(g.N); u++ {
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if uf.Union(int(u), int(v)) {
				comps--
			}
		}
	}
	return comps == 1
}

// bellmanFord is an independent O(N·E) shortest-path oracle that
// cross-checks Dijkstra.
func bellmanFord(g *Graph, src int32) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for iter := 0; iter < g.N; iter++ {
		changed := false
		for u := int32(0); u < int32(g.N); u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			adj, w := g.Neighbors(u)
			for k, v := range adj {
				if nd := dist[u] + w[k]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// primMST is an independent MST oracle that cross-checks Kruskal.
func primMST(g *Graph) (weight float64, edges int) {
	if g.N == 0 {
		return 0, 0
	}
	inTree := make([]bool, g.N)
	best := make([]float64, g.N)
	for i := range best {
		best[i] = Inf
	}
	var h DistHeap
	best[0] = 0
	h.Push(0, 0)
	for h.Len() > 0 {
		d, u := h.Pop()
		if inTree[u] || d > best[u] {
			continue
		}
		inTree[u] = true
		if u != 0 {
			weight += d
			edges++
		}
		adj, w := g.Neighbors(u)
		for k, v := range adj {
			if !inTree[v] && w[k] < best[v] {
				best[v] = w[k]
				h.Push(w[k], v)
			}
		}
	}
	return weight, edges
}
