package mst

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/transport"
)

func TestSequentialIsMST(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Geometric(300, seed)
		res := Sequential(g)
		if err := Check(g, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kw, _ := graph.KruskalMST(g)
		if math.Abs(res.Weight-kw) > 1e-9 {
			t.Fatalf("seed %d: weight %g vs Kruskal %g", seed, res.Weight, kw)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.Geometric(1000, 5)
	want := Sequential(g)
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, g)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if math.Abs(got.Weight-want.Weight) > 1e-9 {
			t.Fatalf("p=%d: weight %g, want %g", p, got.Weight, want.Weight)
		}
		if err := Check(g, got); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if st.S() < 1 {
			t.Errorf("p=%d: S = %d", p, st.S())
		}
	}
}

func TestParallelEdgeSetIdentical(t *testing.T) {
	// Under the total edge order the MST is unique, so the parallel
	// edge list must match the sequential one exactly.
	g := graph.Geometric(600, 6)
	want := Sequential(g)
	got, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: %+v, want %+v", i, got.Edges[i], want.Edges[i])
		}
	}
}

func TestEndgameThresholdVariants(t *testing.T) {
	// Forcing tiny and huge thresholds exercises the pure-Borůvka and
	// pure-endgame paths; both must produce the same tree.
	g := graph.Geometric(500, 7)
	want := Sequential(g)
	for _, thresh := range []int{2, 8, 100000} {
		got, _, err := parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, thresh)
		if err != nil {
			t.Fatalf("threshold %d: %v", thresh, err)
		}
		if math.Abs(got.Weight-want.Weight) > 1e-9 {
			t.Fatalf("threshold %d: weight %g, want %g", thresh, got.Weight, want.Weight)
		}
	}
}

func TestConservativeLabelTraffic(t *testing.T) {
	// No superstep may move more label packets per process than the
	// border size plus the component-machinery overhead; the dominant
	// border-exchange supersteps must stay within border counts.
	g := graph.Geometric(800, 9)
	const p = 4
	pt := graph.PartitionStrips(g, p)
	totalBorder := 0
	for _, part := range pt.Parts {
		totalBorder += part.NLocal() - part.NHome
	}
	_, st, err := parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range st.Steps {
		// Label exchanges are bounded by total border copies; the
		// endgame gather at process 0 by the N-1 tree edges; use the
		// loose global bound covering both.
		if step.MaxH > totalBorder+g.N {
			t.Errorf("superstep %d: h = %d suspiciously large (borders %d)", i, step.MaxH, totalBorder)
		}
	}
}

func TestSuperstepsGrowSlowly(t *testing.T) {
	// "the number of supersteps required for this computation grows
	// quite slowly with the problem size" (§3.3.1).
	cfg := core.Config{P: 4, Transport: transport.ShmTransport{}}
	_, stSmall, err := Parallel(cfg, graph.Geometric(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	_, stBig, err := Parallel(cfg, graph.Geometric(3200, 10))
	if err != nil {
		t.Fatal(err)
	}
	if stBig.S() > 4*stSmall.S()+40 {
		t.Errorf("S grew too fast: %d (n=200) -> %d (n=3200)", stSmall.S(), stBig.S())
	}
}

func TestQuickParallelWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, pPick uint8) bool {
		p := int(pPick)%4 + 1
		g := graph.Geometric(120, seed)
		want := Sequential(g)
		got, _, err := parallel(core.Config{P: p, Transport: transport.SimTransport{}}, g, 6)
		if err != nil {
			return false
		}
		return math.Abs(got.Weight-want.Weight) <= 1e-9 && Check(g, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCheckRejectsBadResults(t *testing.T) {
	g := graph.Geometric(50, 11)
	res := Sequential(g)
	if err := Check(g, Result{Weight: res.Weight, Edges: res.Edges[:len(res.Edges)-1]}); err == nil {
		t.Error("missing edge not caught")
	}
	bad := append(append([]graph.Edge(nil), res.Edges[:len(res.Edges)-1]...), res.Edges[0])
	if err := Check(g, Result{Weight: res.Weight, Edges: bad}); err == nil {
		t.Error("cycle not caught")
	}
	if err := Check(g, Result{Weight: res.Weight + 1, Edges: res.Edges}); err == nil {
		t.Error("wrong weight not caught")
	}
}

func TestConfigThreshold(t *testing.T) {
	if threshold(16) != 32 {
		t.Error("threshold for p=16 should be 32")
	}
	if threshold(32) != 64 {
		t.Error("threshold should scale with p")
	}
}

// Check verifies that a Result is a spanning tree of g with the claimed
// weight: an oracle-independent validity check.
func Check(g *graph.Graph, res Result) error {
	if len(res.Edges) != g.N-1 {
		return fmt.Errorf("mst: %d edges, want %d", len(res.Edges), g.N-1)
	}
	uf := graph.NewUnionFind(g.N)
	var w float64
	for _, e := range res.Edges {
		if !uf.Union(int(e.U), int(e.V)) {
			return fmt.Errorf("mst: edge (%d,%d) closes a cycle", e.U, e.V)
		}
		w += e.W
	}
	if math.Abs(w-res.Weight) > 1e-6 {
		return fmt.Errorf("mst: edge weights sum to %g, result claims %g", w, res.Weight)
	}
	return nil
}
