package cost

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// line returns one observation per h on the exact line y = g·h + l.
func line(g, l float64, hs ...float64) []Obs {
	obs := make([]Obs, len(hs))
	for i, h := range hs {
		obs[i] = Obs{H: h, Us: g*h + l}
	}
	return obs
}

// TestFitExact: observations on a known line recover it exactly.
func TestFitExact(t *testing.T) {
	for _, want := range []Params{{G: 0.25, L: 12}, {G: 0, L: 3.5}, {G: 1.5, L: 0}} {
		got, ok := Fit(line(want.G, want.L, 3, 24, 96, 384, 1, 3, 24))
		if !ok || math.Abs(got.G-want.G) > 1e-9 || math.Abs(got.L-want.L) > 1e-9 {
			t.Errorf("Fit recovered %+v ok=%v, want %+v", got, ok, want)
		}
	}
}

// TestOnlineEstimatorRecovers: feeding synthetic supersteps generated
// from a known (g, L) must recover both parameters closely, even with
// multiplicative noise on the waits.
func TestOnlineEstimatorRecovers(t *testing.T) {
	const g, l = 2.5, 800.0 // µs/pkt, µs
	rng := rand.New(rand.NewSource(7))
	e := NewOnlineEstimator()
	for i := 0; i < 200; i++ {
		h := float64(100 + rng.Intn(4000))
		waitUs := (g*h + l) * (1 + 0.05*rng.NormFloat64())
		e.Observe(h, time.Duration(waitUs*1e3)*time.Nanosecond)
	}
	pm, ok := e.Fit()
	if !ok {
		t.Fatalf("Fit not ok after %d observations", e.N())
	}
	if math.Abs(pm.G-g)/g > 0.15 {
		t.Errorf("fitted g = %.3f, want ~%.1f", pm.G, g)
	}
	if math.Abs(pm.L-l)/l > 0.25 {
		t.Errorf("fitted L = %.1f, want ~%.0f", pm.L, l)
	}
}

// TestFitPreemption: a fifth of the supersteps inflated 20–100× — a
// host whose cores another process keeps taking — must not move the
// fit by more than 10 % on either parameter. A least-squares line
// through the same samples puts g more than ten times too high.
func TestFitPreemption(t *testing.T) {
	const g, l = 2.5, 800.0
	rng := rand.New(rand.NewSource(3))
	var obs []Obs
	for i := 0; i < 200; i++ {
		h := float64(100 + rng.Intn(4000))
		us := (g*h + l) * (1 + 0.01*rng.NormFloat64())
		if i%5 == 0 {
			us *= 20 + 80*rng.Float64()
		}
		obs = append(obs, Obs{H: h, Us: us})
	}
	pm, ok := Fit(obs)
	if !ok || math.Abs(pm.G-g)/g > 0.1 || math.Abs(pm.L-l)/l > 0.1 {
		t.Errorf("fit under preemption = %+v ok=%v, want (g=%.1f, L=%.0f) within 10%%", pm, ok, g, l)
	}
}

// TestFitClamps: one h level cannot identify g, so the fit reports
// !ok with L = median wait (not the mean, which the outlier drags);
// a negative slope refits L as the median with g = 0; a negative
// intercept is clamped to 0.
func TestFitClamps(t *testing.T) {
	flat := []Obs{{1000, 3000}, {1000, 2900}, {1000, 90000}, {1000, 3100}, {1000, 1}}
	if pm, ok := Fit(flat); ok || pm != (Params{L: 3000}) {
		t.Errorf("one h level: %+v ok=%v, want !ok, G=0, L=3000", pm, ok)
	}
	if pm, ok := Fit(nil); ok || pm != (Params{}) {
		t.Errorf("no observations: %+v ok=%v", pm, ok)
	}

	falling := line(-2, 10000, 100, 200, 300, 400, 500)
	if pm, ok := Fit(falling); !ok || pm != (Params{L: 9400}) {
		t.Errorf("negative slope: %+v ok=%v, want G=0, L=median=9400", pm, ok)
	}

	if pm, _ := Fit(line(0.5, -4, 3, 24, 96)); pm != (Params{G: 0.5}) {
		t.Errorf("negative intercept: %+v, want G=0.5, L=0", pm)
	}
}

// TestOnlineEstimatorWindow: the ring must age old observations out,
// so a regime change (g doubles) moves the fit once the window rolls.
func TestOnlineEstimatorWindow(t *testing.T) {
	e := NewOnlineEstimator()
	rng := rand.New(rand.NewSource(11))
	feed := func(g float64, n int) {
		for i := 0; i < n; i++ {
			h := float64(100 + rng.Intn(2000))
			e.Observe(h, time.Duration((g*h+500)*1e3)*time.Nanosecond)
		}
	}
	feed(1.0, onlineWindow)
	feed(4.0, onlineWindow) // fully displaces the old regime
	pm, ok := e.Fit()
	if !ok || math.Abs(pm.G-4.0) > 0.4 {
		t.Errorf("fit after regime change = %+v ok=%v, want g~4.0", pm, ok)
	}
	if e.N() != onlineWindow {
		t.Errorf("window size %d, want %d", e.N(), onlineWindow)
	}

	var nilE *OnlineEstimator
	nilE.Observe(1, time.Second)
	if _, ok := nilE.Fit(); ok || nilE.N() != 0 {
		t.Error("nil estimator must be inert")
	}
}
