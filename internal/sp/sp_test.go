package sp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/transport"
)

func distsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("%s: dist[%d] = %g, want %g", label, v, got[v], want[v])
		}
	}
}

func TestParallelMatchesDijkstra(t *testing.T) {
	g := graph.Geometric(800, 5)
	want := graph.Dijkstra(g, 0)
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, st, err := ParallelSingle(core.Config{P: p, Transport: transport.ShmTransport{}}, g, 0, DefaultWorkFactor)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		distsEqual(t, got, want, "parallel sp")
		if p == 1 && st.H() > 1 {
			// With one process there are no ghosts, only self status.
			t.Errorf("p=1: H = %d, want ~0", st.H())
		}
		if st.S() < 1 {
			t.Errorf("p=%d: S = %d", p, st.S())
		}
	}
}

func TestWorkFactorAffectsSupersteps(t *testing.T) {
	// A smaller work factor forces more supersteps (the paper's
	// trade-off: lower work factor = better balance but more latency).
	g := graph.Geometric(1200, 6)
	_, stSmall, err := ParallelSingle(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	_, stLarge, err := ParallelSingle(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if stSmall.S() <= stLarge.S() {
		t.Errorf("S(wf=20) = %d should exceed S(wf=100000) = %d", stSmall.S(), stLarge.S())
	}
	// A zero budget would never pop a node, so it is refused up front.
	if _, _, err := ParallelSingle(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, 0, 0); err == nil {
		t.Error("work factor 0 accepted")
	}
}

func TestDifferentSources(t *testing.T) {
	g := graph.Geometric(400, 7)
	for _, src := range []int32{0, 100, int32(g.N - 1)} {
		want := graph.Dijkstra(g, src)
		got, _, err := ParallelSingle(core.Config{P: 3, Transport: transport.ShmTransport{}}, g, src, DefaultWorkFactor)
		if err != nil {
			t.Fatal(err)
		}
		distsEqual(t, got, want, "source variation")
	}
}

func TestMultiSource(t *testing.T) {
	g := graph.Geometric(500, 8)
	srcs := []int32{0, 7, 99, 250}
	want := graph.MultiDijkstra(g, srcs)
	got, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, srcs, DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	for i := range srcs {
		distsEqual(t, got[i], want[i], "multi-source")
	}
}

func TestMultiSourceSharesSupersteps(t *testing.T) {
	// Running K sources together must use far fewer supersteps than K
	// separate runs — the point of the MSP application (§3.5).
	g := graph.Geometric(600, 9)
	srcs := []int32{0, 50, 100, 150, 200}
	cfg := core.Config{P: 4, Transport: transport.ShmTransport{}}
	_, stTogether, err := Parallel(cfg, g, srcs, DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	sumSeparate := 0
	for _, s := range srcs {
		_, st, err := ParallelSingle(cfg, g, s, DefaultWorkFactor)
		if err != nil {
			t.Fatal(err)
		}
		sumSeparate += st.S()
	}
	if stTogether.S() >= sumSeparate {
		t.Errorf("S together = %d, sum of separate = %d; batching should save supersteps", stTogether.S(), sumSeparate)
	}
}

func TestSimDeterministicStats(t *testing.T) {
	// Two sim runs of the same program must produce identical (H, S).
	g := graph.Geometric(400, 11)
	cfg := core.Config{P: 4, Transport: transport.SimTransport{}}
	_, st1, err := ParallelSingle(cfg, g, 0, DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := ParallelSingle(cfg, g, 0, DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	if st1.S() != st2.S() || st1.H() != st2.H() {
		t.Errorf("sim nondeterministic: (H,S) = (%d,%d) vs (%d,%d)", st1.H(), st1.S(), st2.H(), st2.S())
	}
}

func TestConservativeCommunication(t *testing.T) {
	// The algorithm is conservative: total label packets are bounded by
	// (border copies) × (label changes), and in particular each
	// superstep's h is at most border size + p status packets. Check a
	// loose but meaningful invariant: total packets ≤ supersteps ×
	// (max border + p).
	g := graph.Geometric(500, 12)
	const p = 4
	pt := graph.PartitionStrips(g, p)
	maxBorder := 0
	for _, part := range pt.Parts {
		if b := part.NLocal() - part.NHome; b > maxBorder {
			maxBorder = b
		}
	}
	_, st, err := ParallelSingle(core.Config{P: p, Transport: transport.ShmTransport{}}, g, 0, DefaultWorkFactor)
	if err != nil {
		t.Fatal(err)
	}
	perStep := maxBorder + p
	for i, step := range st.Steps {
		if step.MaxH > perStep {
			t.Errorf("superstep %d: h = %d exceeds conservative bound %d", i, step.MaxH, perStep)
		}
	}
}

func TestQuickParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, pPick, srcPick uint8) bool {
		p := int(pPick)%4 + 1
		g := graph.Geometric(150, seed)
		src := int32(int(srcPick) % g.N)
		want := graph.Dijkstra(g, src)
		got, _, err := ParallelSingle(core.Config{P: p, Transport: transport.SimTransport{}}, g, src, 50)
		if err != nil {
			return false
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
