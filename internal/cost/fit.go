package cost

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Obs is one superstep observed for the (g, L) line fit: H packets
// moved in the superstep and its duration in microseconds.
type Obs struct {
	H, Us float64
}

// Fit estimates (g, L) from per-superstep observations by fitting
// Equation 1's line y = g·h + L. It is the one fit behind every
// source of observations: the host sweep (harness.MeasureParams) and
// a running job's telemetry window (OnlineEstimator).
//
// The fit is Theil–Sen: g is the median of the slopes between every
// pair of observations with distinct h, and L = median(y − g·h).
// Medians of per-superstep samples are what make it robust: a
// preempted superstep is one outlier among many, where a mean or a
// whole-run total would absorb its inflation.
//
// ok is false when fewer than two distinct h values were observed: a
// slope cannot be identified, and the result is g = 0, L = median(y),
// still the best Eq-1 predictor available. Estimates are clamped: a
// negative slope refits L as median(y) with g = 0, and a negative
// intercept becomes 0 — a machine never pays you to communicate.
func Fit(obs []Obs) (pm Params, ok bool) {
	if len(obs) == 0 {
		return Params{}, false
	}
	var slopes []float64
	for i, a := range obs {
		for _, b := range obs[i+1:] {
			if b.H != a.H {
				slopes = append(slopes, (b.Us-a.Us)/(b.H-a.H))
			}
		}
	}
	g := 0.0
	if len(slopes) > 0 {
		g = max(median(slopes), 0)
	}
	rest := make([]float64, len(obs))
	for i, o := range obs {
		rest[i] = o.Us - g*o.H
	}
	return Params{G: g, L: max(median(rest), 0)}, len(slopes) > 0
}

// median returns the median of xs, reordering xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// OnlineEstimator is the live source of observations: a running job's
// telemetry intervals, each one (h per superstep, sync wait per
// superstep), kept in a fixed-size ring and fitted by Fit on demand.
// Old intervals age out, so the fit tracks the network the job is on
// now (a transient straggler or a cold cache shifts the estimate only
// while it is in the window). All methods are safe for concurrent use.
type OnlineEstimator struct {
	mu   sync.Mutex
	obs  []Obs
	next int
}

// onlineWindow holds roughly a minute of 250ms telemetry intervals
// from a p=16 gang — enough samples to damp noise, small enough to
// track drift.
const onlineWindow = 256

// NewOnlineEstimator returns an estimator with the default window.
func NewOnlineEstimator() *OnlineEstimator {
	return &OnlineEstimator{obs: make([]Obs, 0, onlineWindow)}
}

// Observe adds one interval observation: h packet units moved per
// superstep and the sync wait per superstep. Non-finite or negative
// inputs are dropped.
func (e *OnlineEstimator) Observe(h float64, wait time.Duration) {
	if e == nil || h < 0 || wait < 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return
	}
	o := Obs{H: h, Us: float64(wait.Nanoseconds()) / 1e3}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.obs) < cap(e.obs) {
		e.obs = append(e.obs, o)
		return
	}
	e.obs[e.next] = o
	e.next = (e.next + 1) % len(e.obs)
}

// N reports the number of observations currently in the window.
func (e *OnlineEstimator) N() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.obs)
}

// Fit returns Fit over the current window.
func (e *OnlineEstimator) Fit() (pm Params, ok bool) {
	if e == nil {
		return Params{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return Fit(e.obs)
}
