package plasma

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestTwoStreamInit(t *testing.T) {
	ps := TwoStream(1000, 0.2, 0.001, 1)
	if len(ps) != 1000 {
		t.Fatalf("got %d particles", len(ps))
	}
	var mom float64
	for _, p := range ps {
		if p.X < 0 || p.X >= 1 {
			t.Fatalf("particle outside box: %v", p.X)
		}
		mom += p.V
	}
	if math.Abs(mom/float64(len(ps))) > 0.01 {
		t.Errorf("beams unbalanced: mean velocity %g", mom/float64(len(ps)))
	}
	again := TwoStream(1000, 0.2, 0.001, 1)
	for i := range ps {
		if ps[i] != again[i] {
			t.Fatal("TwoStream not deterministic")
		}
	}
}

func TestChargeNeutralField(t *testing.T) {
	// A uniform density has zero field.
	rho := make([]float64, 64)
	for i := range rho {
		rho[i] = 3.7
	}
	for _, e := range fieldFromRho(rho) {
		if math.Abs(e) > 1e-12 {
			t.Fatalf("uniform charge produced field %g", e)
		}
	}
}

func TestDepositConservesCharge(t *testing.T) {
	rho := make([]float64, 32)
	const n = 500
	ps := TwoStream(n, 0.1, 0.01, 2)
	for _, p := range ps {
		deposit(rho, 32, p.X, 1.0/n)
	}
	sum := 0.0
	for _, r := range rho {
		sum += r / 32 // density × dx
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("total deposited charge %g, want 1", sum)
	}
}

func TestSequentialMomentumConservation(t *testing.T) {
	ps := TwoStream(2000, 0.2, 0.001, 3)
	mom := func() float64 {
		var m float64
		for _, p := range ps {
			m += p.V
		}
		return m
	}
	m0 := mom()
	Sequential(ps, 30)
	if drift := math.Abs(mom() - m0); drift > 1e-9*float64(len(ps)) {
		t.Errorf("momentum drift %g over 30 steps", drift)
	}
}

func TestTwoStreamInstabilityGrows(t *testing.T) {
	// The two-stream configuration is linearly unstable: field energy
	// must grow by orders of magnitude from the seed perturbation.
	ps := TwoStream(4000, 0.2, 1e-4, 4)
	energy := Sequential(ps, 120)
	if energy[len(energy)-1] < 100*energy[0] {
		t.Errorf("field energy grew only %g -> %g; two-stream instability missing",
			energy[0], energy[len(energy)-1])
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	orig := TwoStream(1500, 0.2, 0.001, 5)
	const steps = 10
	seqPs := append([]Particle(nil), orig...)
	seqEnergy := Sequential(seqPs, steps)
	for _, p := range []int{1, 2, 4, 8} {
		gotPs, gotEnergy, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, orig, steps)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(gotPs) != len(orig) {
			t.Fatalf("p=%d: lost particles: %d", p, len(gotPs))
		}
		for s := range seqEnergy {
			if rel := math.Abs(gotEnergy[s]-seqEnergy[s]) / (seqEnergy[s] + 1e-300); rel > 1e-9 {
				t.Errorf("p=%d step %d: energy %g vs sequential %g", p, s, gotEnergy[s], seqEnergy[s])
			}
		}
		// Particle sets match up to ordering and FP summation noise.
		a := append([]Particle(nil), gotPs...)
		b := append([]Particle(nil), seqPs...)
		sort.Slice(a, func(i, j int) bool { return a[i].X < a[j].X })
		sort.Slice(b, func(i, j int) bool { return b[i].X < b[j].X })
		for i := range a {
			if math.Abs(a[i].X-b[i].X) > 1e-9 || math.Abs(a[i].V-b[i].V) > 1e-9 {
				t.Fatalf("p=%d: particle %d diverged: %+v vs %+v", p, i, a[i], b[i])
			}
		}
		if st.S() < steps*5 {
			t.Errorf("p=%d: S = %d, want >= %d (5 per step)", p, st.S(), steps*5)
		}
	}
}

func TestMoreProcsThanCells(t *testing.T) {
	// ng=8 cells across 16 processes: half the strips are empty.
	orig := TwoStream(200, 0.2, 0.001, 7)
	seqPs := append([]Particle(nil), orig...)
	want := sequential(seqPs, 8, 3)
	_, energy, _, err := parallel(core.Config{P: 16, Transport: transport.ShmTransport{}}, orig, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if math.Abs(energy[s]-want[s]) > 1e-9*(want[s]+1) {
			t.Fatalf("energy diverged at step %d: %g vs %g", s, energy[s], want[s])
		}
	}
}
