// Package msp implements the paper's multiple shortest paths application
// (§3.5): K single-source shortest path computations performed
// simultaneously on the same read-only graph.
//
// "In many situations, it is useful to perform a number of shortest path
// computations simultaneously. Examples are the all-pairs shortest paths
// problem (or a subset of all-pairs), the global routing phase in VLSI
// layout, and some graph partitioning heuristics." The read-only graph
// needs Ω(|E|+|V|) storage while the per-computation read-write data is
// O(|V|) — running the K computations together amortizes both the graph
// storage and, crucially for BSP, the superstep latency: labels of all K
// computations share the same superstep boundaries and message batches.
//
// "In our experiments, we performed 25 shortest path computations
// simultaneously. We used the same work factor as in the shortest path
// experiments." The K computations run on package sp's engine
// (sp.Parallel with sp.DefaultWorkFactor); the sequential baseline is K
// independent Dijkstra runs (graph.MultiDijkstra).
package msp

import (
	"math/rand"

	"repro/internal/graph"
)

// DefaultSources is the paper's K = 25.
const DefaultSources = 25

// Sources deterministically selects k distinct source nodes of g.
func Sources(g *graph.Graph, k int, seed int64) []int32 {
	if k > g.N {
		k = g.N
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.N)
	srcs := make([]int32, k)
	for i := 0; i < k; i++ {
		srcs[i] = int32(perm[i])
	}
	return srcs
}
