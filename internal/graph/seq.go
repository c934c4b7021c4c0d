package graph

import (
	"math"
	"sort"
)

// KruskalMST computes the minimum spanning forest sequentially and
// returns its total weight and edge count. For connected inputs the edge
// count is N-1. This is the baseline the paper compares against: "the
// running time of the single-processor version of our parallel MST code
// is within 5% of a sequential implementation of Kruskal's algorithm".
func KruskalMST(g *Graph) (weight float64, edges int) {
	list := g.EdgeList()
	sort.Slice(list, func(i, j int) bool { return list[i].W < list[j].W })
	uf := NewUnionFind(g.N)
	for _, e := range list {
		if uf.Union(int(e.U), int(e.V)) {
			weight += e.W
			edges++
			if edges == g.N-1 {
				break
			}
		}
	}
	return weight, edges
}

// Inf is the distance label of unreachable nodes.
var Inf = math.Inf(1)

// Dijkstra computes single-source shortest path distances sequentially
// with a lazy binary heap.
func Dijkstra(g *Graph, src int32) []float64 {
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	var h DistHeap
	h.Push(0, src)
	for h.Len() > 0 {
		d, u := h.Pop()
		if d > dist[u] {
			continue // stale entry
		}
		adj, w := g.Neighbors(u)
		for k, v := range adj {
			if nd := d + w[k]; nd < dist[v] {
				dist[v] = nd
				h.Push(nd, v)
			}
		}
	}
	return dist
}

// MultiDijkstra runs Dijkstra from each source; it is the sequential
// baseline for the MSP application.
func MultiDijkstra(g *Graph, srcs []int32) [][]float64 {
	out := make([][]float64, len(srcs))
	for i, s := range srcs {
		out[i] = Dijkstra(g, s)
	}
	return out
}
