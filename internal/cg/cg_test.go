package cg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/transport"
)

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// residual returns ||(L+I)x − b||₂.
func residual(g *graph.Graph, x, b []float64) float64 {
	ax := Apply(g, x)
	var s float64
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestApplySPD(t *testing.T) {
	g := graph.Geometric(300, 1)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, g.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := Apply(g, x)
		if q := dot(x, ax); q <= 0 {
			t.Fatalf("xᵀ(L+I)x = %g, matrix not positive definite", q)
		}
	}
	// Symmetry: xᵀAy == yᵀAx.
	x, y := rhs(g.N, 3), rhs(g.N, 4)
	if d := dot(x, Apply(g, y)) - dot(y, Apply(g, x)); math.Abs(d) > 1e-9 {
		t.Errorf("asymmetry %g", d)
	}
}

func TestSequentialConverges(t *testing.T) {
	g := graph.Geometric(800, 5)
	b := rhs(g.N, 6)
	x, iters := Sequential(g, b)
	if res := residual(g, x, b); res > 1e-7 {
		t.Errorf("residual %g after %d iterations", res, iters)
	}
	if iters == 0 {
		t.Error("no iterations performed")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.Geometric(700, 7)
	b := rhs(g.N, 8)
	want, wantIters := Sequential(g, b)
	for _, p := range []int{1, 2, 4, 8} {
		got, iters, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, g, b)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res := residual(g, got, b); res > 1e-7 {
			t.Errorf("p=%d: residual %g", p, res)
		}
		var worst float64
		for i := range want {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
		if worst > 1e-6 {
			t.Errorf("p=%d: solution deviates %g from sequential", p, worst)
		}
		if d := iters - wantIters; d < -2 || d > 2 {
			t.Errorf("p=%d: %d iterations vs sequential %d", p, iters, wantIters)
		}
		// 3 supersteps per iteration (exchange + 2 reduces) + setup.
		if st.S() < 3*iters {
			t.Errorf("p=%d: S = %d below 3×iters = %d", p, st.S(), 3*iters)
		}
	}
}

func TestConservativeExchange(t *testing.T) {
	g := graph.Geometric(600, 9)
	b := rhs(g.N, 10)
	const p = 4
	pt := graph.PartitionStrips(g, p)
	maxBorder := 0
	for _, part := range pt.Parts {
		if bcount := part.NLocal() - part.NHome; bcount > maxBorder {
			maxBorder = bcount
		}
	}
	_, _, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, g, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range st.Steps {
		if step.MaxH > maxBorder+2*p {
			t.Errorf("superstep %d: h = %d exceeds border bound %d", i, step.MaxH, maxBorder+2*p)
		}
	}
}

func TestQuickSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, pPick uint8) bool {
		p := int(pPick)%4 + 1
		g := graph.Geometric(150, seed)
		b := rhs(g.N, seed+1)
		x, _, _, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, g, b)
		if err != nil {
			return false
		}
		return residual(g, x, b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
