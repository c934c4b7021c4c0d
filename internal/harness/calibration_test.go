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

// TestFitGLExact checks MeasureParams' fit without a clock: supersteps
// on the sweep's own levels, timed exactly from a known (g, L), must
// give back that (g, L) at every p > 1; a negative intercept is
// clamped to zero; at p = 1 no level moves a packet, so g is not
// identified and the fit is g = 0 with L the superstep time.
func TestFitGLExact(t *testing.T) {
	synth := func(p int, g, l float64) []cost.Obs {
		var obs []cost.Obs
		for range 3 {
			for _, lv := range sweepLevels {
				h := float64(lv.fanAt(p) * lv.batch)
				obs = append(obs, cost.Obs{H: h, Us: g*h + l})
			}
		}
		return obs
	}
	for _, p := range []int{2, 4, 8} {
		for _, want := range []cost.Params{{G: 0.25, L: 12}, {G: 0, L: 3.5}, {G: 1.5, L: 0}} {
			got, ok := cost.Fit(synth(p, want.G, want.L))
			if !ok || math.Abs(got.G-want.G) > 1e-9 || math.Abs(got.L-want.L) > 1e-9 {
				t.Errorf("p=%d: fit recovered %+v ok=%v, want %+v", p, got, ok, want)
			}
		}
		if got, _ := cost.Fit(synth(p, 0.5, -4)); got.L != 0 {
			t.Errorf("p=%d negative intercept: got L=%g, want L clamped to 0", p, got.L)
		}
	}
	if got, ok := cost.Fit(synth(1, 0.25, 12)); ok || got != (cost.Params{L: 12}) {
		t.Errorf("p=1: fit %+v ok=%v, want !ok, G=0, L=12", got, ok)
	}
}

// fitSweep runs MeasureParams' sweep at p = 4 on shm and fits it.
func fitSweep(t *testing.T) ([]cost.Obs, cost.Params) {
	t.Helper()
	obs, err := sweep(transport.ShmTransport{}, 4, sweepSteps, sweepLevels...)
	if err != nil {
		t.Fatal(err)
	}
	fit, ok := cost.Fit(obs)
	if !ok {
		t.Fatalf("sweep of %d supersteps did not identify g", len(obs))
	}
	if fit.L <= 0 || fit.G < 0 {
		t.Fatalf("fitted (g, L) = (%g, %g), want g >= 0 and L > 0", fit.G, fit.L)
	}
	return obs, fit
}

// medianUs returns the median duration of the observations: fitted
// on one h level, cost.Fit's L is exactly that median.
func medianUs(obs []cost.Obs) float64 {
	pm, _ := cost.Fit(obs)
	return pm.L
}

func TestFitParamsAgainstMicrobenchmark(t *testing.T) {
	// The §4 curve fit over the whole sweep should land in the same
	// regime as the paper's direct definition of L: the median
	// one-packet superstep of the same sweep. Timing on a shared core
	// is noisy, so the check is deliberately loose: fitted L within
	// 20× of the directly observed value.
	obs, fit := fitSweep(t)
	var onePacket []cost.Obs
	for _, o := range obs {
		if o.H == 1 {
			onePacket = append(onePacket, o)
		}
	}
	direct := medianUs(onePacket)
	if ratio := fit.L / direct; ratio < 0.05 || ratio > 20 {
		t.Errorf("fitted L %.2fµs vs one-packet superstep %.2fµs: ratio %.2f outside [0.05, 20]", fit.L, direct, ratio)
	}
}

func TestFitParamsPredicts(t *testing.T) {
	// Held-out check: the fitted parameters predict a superstep not in
	// the sweep (a total exchange of 64 packets per pair) within an
	// order of magnitude of its median observed time (the paper's
	// "reliable in modeling the overall behavior" claim at micro scale).
	_, fit := fitSweep(t)
	const p, batch = 4, 64
	held, err := sweep(transport.ShmTransport{}, p, sweepSteps, level{allRanks, batch})
	if err != nil {
		t.Fatal(err)
	}
	actual := medianUs(held)
	pred := fit.G*(p-1)*batch + fit.L
	if pred < actual/10 || pred > actual*10 {
		t.Errorf("fit predicted %.1fµs for a superstep observed at %.1fµs (outside 10×)", pred, actual)
	}
}
