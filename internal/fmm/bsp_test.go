package fmm

import (
	"math/cmplx"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestParallelMatchesDirect(t *testing.T) {
	bodies := RandomBodies(1200, 7)
	want := directForces(bodies)
	for _, p := range []int{1, 2, 4, 8} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, bodies)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var sum float64
		for i := range got {
			sum += relErr(got[i], want[i])
		}
		if mean := sum / float64(len(got)); mean > 1e-5 {
			t.Errorf("p=%d: mean relative force error %.2e", p, mean)
		}
		if st.S() != 3 {
			t.Errorf("p=%d: S = %d, want 3 (bounds, essential, reduce)", p, st.S())
		}
	}
}

func TestParallelMatchesSequentialClosely(t *testing.T) {
	// The parallel decomposition changes which pairs go through
	// expansions, but both sides are within FMM tolerance of direct, so
	// they agree with each other to the same order.
	bodies := RandomBodies(600, 9)
	seq, _ := Forces(bodies)
	par, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range seq {
		sum += relErr(par[i], seq[i])
	}
	if mean := sum / float64(len(seq)); mean > 1e-5 {
		t.Errorf("parallel vs sequential FMM: mean rel diff %.2e", mean)
	}
}

func TestParallelEssentialVolume(t *testing.T) {
	// The essential exchange must move far less than all-to-all body
	// replication: H well below p × N × (bytes per body)/16.
	bodies := RandomBodies(2000, 11)
	const p = 4
	_, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	fullReplication := p * len(bodies) * 24 / 16
	if st.H() >= fullReplication {
		t.Errorf("essential exchange H=%d is no better than full replication %d", st.H(), fullReplication)
	}
}

func TestParallelEmptyStrip(t *testing.T) {
	// More processes than bodies: some strips are empty; the run must
	// still complete with correct forces.
	bodies := RandomBodies(5, 15)
	got, _, err := Parallel(core.Config{P: 8, Transport: transport.ShmTransport{}}, bodies)
	if err != nil {
		t.Fatal(err)
	}
	want := directForces(bodies)
	for i := range got {
		if relErr(got[i], want[i]) > 1e-5 && cmplx.Abs(want[i]) > 1e-12 {
			t.Errorf("body %d: %v vs %v", i, got[i], want[i])
		}
	}
}
