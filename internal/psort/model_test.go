package psort

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

func TestDefaultRatio(t *testing.T) {
	sgi8 := cost.SGI.Params(8)
	if got := DefaultRatio(sgi8, 16000, 1, 8); got != 1 {
		t.Errorf("p=1 ratio = %d, want 1", got)
	}
	if got := DefaultRatio(sgi8, 0, 8, 8); got != 1 {
		t.Errorf("n=0 ratio = %d, want 1", got)
	}
	// ℓ grows with n (more imbalance to amortize) and shrinks with p
	// (the sample term costs ℓ·p per rank).
	if DefaultRatio(sgi8, 64000, 8, 8) <= DefaultRatio(sgi8, 4000, 8, 8) {
		t.Error("ratio not increasing in n")
	}
	if DefaultRatio(sgi8, 64000, 16, 8) >= DefaultRatio(sgi8, 64000, 4, 8) {
		t.Error("ratio not decreasing in p")
	}
	// A high-latency machine (Cenju: L/g ~ 600) hides sample traffic
	// under the superstep floor, so it affords a denser sample than the
	// low-latency SGI at the same size.
	if DefaultRatio(cost.Cenju.Params(8), 16000, 8, 8) < DefaultRatio(sgi8, 16000, 8, 8) {
		t.Error("high-L/g machine should afford at least the low-L/g ratio")
	}
	// Clamps: never below 1, never above maxRatio, and m = 2ℓp never
	// exceeds the local share.
	if got := DefaultRatio(cost.Params{G: 0.001, L: 1e9}, 1<<30, 2, 8); got > maxRatio {
		t.Errorf("ratio %d exceeds cap %d", got, maxRatio)
	}
	if got := DefaultRatio(sgi8, 100, 8, 8); got != 1 {
		t.Errorf("tiny input ratio = %d, want 1 (m must fit the local share)", got)
	}
}

func TestImbalanceBound(t *testing.T) {
	if got := ImbalanceBound(1000, 1, 4); got != 1000 {
		t.Errorf("p=1 bound = %d, want n", got)
	}
	// The bound is (1+1/ℓ)·n/p plus discretization: tighter with larger
	// ℓ, and always at least n/p.
	if ImbalanceBound(100000, 4, 32) >= ImbalanceBound(100000, 4, 2) {
		t.Error("bound should tighten as ℓ grows")
	}
	if ImbalanceBound(100000, 4, 8) < 100000/4 {
		t.Error("bound below the perfect share is impossible")
	}
}

func TestPredictShape(t *testing.T) {
	sh := PredictShape(16000, 4, 8)
	if sh.S != 4 {
		t.Errorf("S = %d, want 4", sh.S)
	}
	if sh.RouteH <= sh.SampleH+sh.ForwardH+sh.SplitterH {
		t.Errorf("the data exchange must dominate the sample machinery: route=%d, rest=%d",
			sh.RouteH, sh.SampleH+sh.ForwardH+sh.SplitterH)
	}
	if sh.HLower <= 0 || sh.RouteH < sh.HLower {
		t.Errorf("predicted route h %d below the Bilardi lower bound %d", sh.RouteH, sh.HLower)
	}
	if sh.W <= 0 || sh.Bound <= 16000/4 {
		t.Errorf("implausible shape: %+v", sh)
	}
}

// TestMeasuredHWithinPredictedShape: a real run's per-superstep MaxH
// never exceeds the shape's per-superstep prediction, and total
// measured H sits at or above the Bilardi lower bound.
func TestMeasuredHWithinPredictedShape(t *testing.T) {
	const n, p = 16000, 4
	data := RandomData(n, 1996)
	l := oversample(n, p)
	_, _, st, err := sortParallel(core.Config{P: p, Transport: transport.ShmTransport{}}, data, l)
	if err != nil {
		t.Fatal(err)
	}
	sh := PredictShape(n, p, l)
	pred := []int{sh.SampleH, sh.ForwardH, sh.SplitterH, sh.RouteH}
	for i, want := range pred {
		if got := st.Steps[i].MaxH; got > want {
			t.Errorf("superstep %d: measured h = %d exceeds predicted bound %d", i+1, got, want)
		}
	}
	if h := st.H(); h < sh.HLower {
		t.Errorf("measured H = %d below the lower bound %d — impossible unless accounting is broken", h, sh.HLower)
	}
}

func TestWriteCostReport(t *testing.T) {
	const n, p = 8000, 4
	data := ZipfData(n, 7)
	_, _, st, err := sortParallel(core.Config{P: p, Transport: transport.ShmTransport{}}, data, oversample(n, p))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteCostReport(&b, "SGI", cost.SGI.Params(p), n, p, st)
	out := b.String()
	for _, want := range []string{
		"sample sort cost shape",
		"predicted S=4",
		"imbalance bound (1+1/l)*n/p",
		"Bilardi H lower bound",
		"measured H=",
		"measured: S=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
