package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

// FitParams estimates a transport's BSP parameters by curve fitting:
// it times a sweep of synthetic programs with known (H, S) and solves
// the least-squares problem T ≈ g·H + L·S. Section 4 of the paper holds
// that "such a 'curve fitting' approach seems more realistic on fairly
// simple subroutines (i.e., broadcast or sorting) than on more complex
// application programs" — this is that approach, applied to the simplest
// subroutine of all (a raw total exchange), and the test suite compares
// the fit against the direct microbenchmark measurement of
// MeasureParams.
func FitParams(tr transport.Transport, p int) (cost.Params, error) {
	// The sweep varies H at fixed S and S at fixed H so the two
	// parameters are separately identifiable.
	configs := []struct {
		batch, steps int
	}{
		{1, 40}, {1, 160}, {8, 40}, {32, 40}, {128, 20}, {128, 80},
	}
	// The paper defines L as the *minimum* superstep duration, so each
	// point is the fastest of three sweeps: one preempted run on a loaded
	// host would otherwise drag the clamped intercept to zero. The sweeps
	// are interleaved so a burst of load cannot inflate all three timings
	// of one point.
	observations := make([]fitObs, len(configs))
	for rep := 0; rep < 3; rep++ {
		for i, c := range configs {
			elapsed, err := timeExchange(tr, p, c.batch, c.steps)
			if err != nil {
				return cost.Params{}, fmt.Errorf("harness: curve-fit sweep (batch=%d steps=%d): %w", c.batch, c.steps, err)
			}
			if t := float64(elapsed.Microseconds()); rep == 0 || t < observations[i].t {
				observations[i] = fitObs{h: c.steps * (p - 1) * c.batch, s: c.steps, t: t}
			}
		}
	}
	return fitGL(observations)
}

// timeExchange times steps supersteps in which every rank sends batch
// packets to every other rank, after one warm-up superstep, as seen by
// rank 0.
func timeExchange(tr transport.Transport, p, batch, steps int) (time.Duration, error) {
	var elapsed time.Duration
	_, err := core.Run(core.Config{P: p, Transport: tr}, func(c *core.Proc) {
		var pkt core.Pkt
		c.Sync()
		t0 := time.Now()
		for s := 0; s < steps; s++ {
			for dst := 0; dst < p; dst++ {
				if dst == c.ID() {
					continue
				}
				for k := 0; k < batch; k++ {
					c.SendPkt(dst, &pkt)
				}
			}
			c.Sync()
			for {
				if _, ok := c.GetPkt(); !ok {
					break
				}
			}
		}
		if c.ID() == 0 {
			elapsed = time.Since(t0)
		}
	})
	return elapsed, err
}

// fitObs is one timed program of the sweep: total h-relation size,
// superstep count, and wall time in microseconds.
type fitObs struct {
	h, s int
	t    float64
}

// fitGL solves the least-squares problem T = g·H + L·S by its normal
// equations, clamping both parameters at zero (W of the empty loop body
// is absorbed into L, exactly as in the paper's L definition: "the
// minimum duration of a superstep").
func fitGL(observations []fitObs) (cost.Params, error) {
	var shh, shs, sss, sht, sst float64
	for _, o := range observations {
		h, s := float64(o.h), float64(o.s)
		shh += h * h
		shs += h * s
		sss += s * s
		sht += h * o.t
		sst += s * o.t
	}
	det := shh*sss - shs*shs
	if det == 0 {
		return cost.Params{}, fmt.Errorf("harness: degenerate curve-fit sweep")
	}
	g := (sht*sss - sst*shs) / det
	l := (sst*shh - sht*shs) / det
	if g < 0 {
		g = 0
	}
	if l < 0 {
		l = 0
	}
	return cost.Params{G: g, L: l}, nil
}
