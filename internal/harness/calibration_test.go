package harness

import (
	"math"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/transport"
)

func TestCalibrationFactorAnchorsToPaper(t *testing.T) {
	// mm at 144 has a paper anchor: W(paper, NP=1) = 0.43 s; the
	// factor must map the measured units to exactly that.
	rows, err := Collect("mm", []int{144}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	factor := CalibrationFactor(rows)
	var base Row
	for _, r := range rows {
		if r.NP == 1 {
			base = r
		}
	}
	if got := base.CalW(factor); got < 425*time.Millisecond || got > 435*time.Millisecond {
		t.Errorf("calibrated W(1) = %v, want the paper's 0.43 s", got)
	}
	// Units for mm: n³ fused multiply-adds.
	if base.WU != 144*144*144 {
		t.Errorf("mm work units = %d, want 144³ = %d", base.WU, 144*144*144)
	}
}

func TestCalibrationFactorPicksLargestAnchor(t *testing.T) {
	rows := []Row{
		{App: "mm", Size: 144, NP: 1, WU: 1000},
		{App: "mm", Size: 288, NP: 1, WU: 8000},
		{App: "mm", Size: 288, NP: 4, WU: 2000},
	}
	factor := CalibrationFactor(rows)
	// Paper W for mm 288 NP=1 is 3.4 s → factor = 3.4/8000.
	want := 3.4 / 8000
	if diff := factor - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("factor = %g, want %g (anchored at size 288)", factor, want)
	}
}

func TestCalibrationFactorFallsBackToHost(t *testing.T) {
	rows := []Row{
		{App: "psort", Size: 100, NP: 1, WU: 500, W: 250 * time.Microsecond},
	}
	factor := CalibrationFactor(rows)
	want := (250e-6) / 500
	if diff := factor - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("fallback factor = %g, want host %g", factor, want)
	}
}

func TestSpeedupCalBehaviour(t *testing.T) {
	base := Row{App: "mm", Size: 144, NP: 1, WU: 1 << 20, H: 0, S: 1}
	r := Row{App: "mm", Size: 144, NP: 16, WU: 1 << 16, H: 7776, S: 7}
	const factor = 1e-7
	sp := r.SpeedupCal(cost.SGI, base, factor)
	if sp <= 1 || sp > 16 {
		t.Errorf("model speed-up %g out of plausible range", sp)
	}
	// Higher-latency machine gives lower speed-up for the same program.
	if cj := r.SpeedupCal(cost.Cenju, base, factor); cj >= sp {
		t.Errorf("Cenju speed-up %g should be below SGI's %g", cj, sp)
	}
}

// TestFitGLExact checks the normal-equation solve without a clock:
// observations generated from known (g, L) must be recovered, a
// negative intercept is clamped to zero, and a sweep that varies H and
// S in lockstep is reported as degenerate.
func TestFitGLExact(t *testing.T) {
	synth := func(g, l float64) []fitObs {
		var obs []fitObs
		for _, hs := range [][2]int{{120, 40}, {480, 160}, {960, 40}, {3840, 40}, {7680, 20}, {30720, 80}} {
			obs = append(obs, fitObs{h: hs[0], s: hs[1], t: g*float64(hs[0]) + l*float64(hs[1])})
		}
		return obs
	}
	for _, want := range []cost.Params{{G: 0.25, L: 12}, {G: 0, L: 3.5}, {G: 1.5, L: 0}} {
		got, err := fitGL(synth(want.G, want.L))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.G-want.G) > 1e-9 || math.Abs(got.L-want.L) > 1e-9 {
			t.Errorf("fitGL recovered (g=%g, L=%g), want (g=%g, L=%g)", got.G, got.L, want.G, want.L)
		}
	}
	if got, err := fitGL(synth(0.5, -4)); err != nil || got.L != 0 {
		t.Errorf("negative intercept: got L=%g err=%v, want L clamped to 0", got.L, err)
	}
	if _, err := fitGL([]fitObs{{h: 10, s: 1, t: 5}, {h: 20, s: 2, t: 10}}); err == nil {
		t.Error("collinear (H, S) sweep must be reported as degenerate")
	}
}

func TestFitParamsAgainstMicrobenchmark(t *testing.T) {
	// The §4 curve-fitting approach on the simplest subroutine: fitted
	// (g, L) should land in the same regime as the directly measured
	// parameters. Timing on a shared CI core is noisy, so the check is
	// deliberately loose: positive L, and fitted L within 20× of the
	// measured value.
	tr := transport.ShmTransport{}
	fit, err := FitParams(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fit.L <= 0 {
		t.Fatalf("fitted L = %g, want > 0", fit.L)
	}
	meas, err := MeasureParams(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := fit.L / meas.L
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("fitted L %.2fµs vs measured %.2fµs: ratio %.2f outside [0.05, 20]", fit.L, meas.L, ratio)
	}
	if fit.G < 0 {
		t.Errorf("fitted g = %g", fit.G)
	}
}

func TestFitParamsPredicts(t *testing.T) {
	// Held-out check: the fitted parameters predict a configuration not
	// in the sweep within an order of magnitude (the paper's "reliable
	// in modeling the overall behavior" claim at micro scale).
	tr := transport.ShmTransport{}
	fit, err := FitParams(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	const batch, steps, p = 64, 60, 4
	elapsed, err := timeExchange(tr, p, batch, steps)
	if err != nil {
		t.Fatal(err)
	}
	pred := fit.Predict(0, steps*(p-1)*batch, steps)
	lo, hi := elapsed/10, elapsed*10
	if pred < lo || pred > hi {
		t.Errorf("fit predicted %v for an actual %v (outside 10×)", pred, elapsed)
	}
}
