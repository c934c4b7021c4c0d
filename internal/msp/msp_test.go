package msp

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sp"
	"repro/internal/transport"
)

func TestSources(t *testing.T) {
	g := graph.Geometric(200, 1)
	srcs := Sources(g, 25, 7)
	if len(srcs) != 25 {
		t.Fatalf("got %d sources, want 25", len(srcs))
	}
	seen := make(map[int32]bool)
	for _, s := range srcs {
		if s < 0 || s >= int32(g.N) || seen[s] {
			t.Fatalf("bad or duplicate source %d", s)
		}
		seen[s] = true
	}
	again := Sources(g, 25, 7)
	for i := range srcs {
		if srcs[i] != again[i] {
			t.Fatal("Sources not deterministic in seed")
		}
	}
	if small := Sources(g, 500, 7); len(small) != g.N {
		t.Errorf("k > N should clamp: got %d", len(small))
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.Geometric(400, 2)
	srcs := Sources(g, 10, 3)
	want := graph.MultiDijkstra(g, srcs)
	got, st, err := sp.Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, srcs, sp.DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcs {
		for v := range want[i] {
			if math.Abs(got[i][v]-want[i][v]) > 1e-9 {
				t.Fatalf("source %d: dist[%d] = %g, want %g", srcs[i], v, got[i][v], want[i][v])
			}
		}
	}
	if st.S() < 1 {
		t.Errorf("S = %d", st.S())
	}
}

func TestPaperK25(t *testing.T) {
	g := graph.Geometric(300, 4)
	srcs := Sources(g, DefaultSources, 5)
	if len(srcs) != 25 {
		t.Fatalf("paper uses K = 25, got %d", len(srcs))
	}
	got, _, err := sp.Parallel(core.Config{P: 2, Transport: transport.ShmTransport{}}, g, srcs, sp.DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.MultiDijkstra(g, srcs)
	for i := range srcs {
		for v := range want[i] {
			if math.Abs(got[i][v]-want[i][v]) > 1e-9 {
				t.Fatalf("K=25 source %d mismatch at node %d", i, v)
			}
		}
	}
}
