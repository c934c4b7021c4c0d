package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

// MeasuredParams is one host (g, L) measurement.
type MeasuredParams struct {
	Transport string
	P         int
	Params    cost.Params
}

// A level is one kind of superstep in the sweep: every rank sends
// batch packets to each of its next fan ranks. A fan of p−1 or more
// is a total exchange.
type level struct{ fan, batch int }

// fanAt is how many ranks each rank sends to at this level on p ranks.
func (lv level) fanAt(p int) int { return min(lv.fan, p-1) }

const allRanks = 1 << 30

// sweepLevels start with the paper's L superstep, in which "each
// processor sends a single packet", and go on to total exchanges of
// growing batch, whose per-packet slope is g.
var sweepLevels = []level{{1, 1}, {allRanks, 1}, {allRanks, 8}, {allRanks, 32}, {allRanks, 128}}

// sweepSteps is how many supersteps of each level the sweep times.
const sweepSteps = 60

// MeasureParams measures the BSP machine parameters of one transport on
// this host, following the paper's definitions: "The value for L
// corresponds to the time for a superstep in which each processor sends
// a single packet. The bandwidth parameter g is the time per 16-byte
// packet for a sufficiently large superstep with a total-exchange
// communication pattern." It is also Section 4's curve fit "on fairly
// simple subroutines": one sweep over sweepLevels, every superstep
// timed on its own, fitted by cost.Fit. At p = 1 no level moves a
// packet, so g is 0 and L is the median superstep.
func MeasureParams(tr transport.Transport, p int) (cost.Params, error) {
	obs, err := sweep(tr, p, sweepSteps, sweepLevels...)
	if err != nil {
		return cost.Params{}, err
	}
	pm, _ := cost.Fit(obs)
	return pm, nil
}

// sweep runs steps supersteps of every level and returns one
// observation per superstep as rank 0 sees it: the packets it sent,
// and the time from the end of its previous superstep to the end of
// this one, draining its inbox included. The levels take turns, so a
// burst of load on the host lands on all of them alike.
func sweep(tr transport.Transport, p, steps int, levels ...level) ([]cost.Obs, error) {
	obs := make([]cost.Obs, 0, steps*len(levels))
	_, err := core.Run(core.Config{P: p, Transport: tr}, func(c *core.Proc) {
		var pkt core.Pkt
		c.Sync()
		t0 := time.Now()
		for range steps {
			for _, lv := range levels {
				fan := lv.fanAt(p)
				for d := 1; d <= fan; d++ {
					for range lv.batch {
						c.SendPkt((c.ID()+d)%p, &pkt)
					}
				}
				c.Sync()
				for _, ok := c.GetPkt(); ok; _, ok = c.GetPkt() {
				}
				if c.ID() == 0 {
					t1 := time.Now()
					obs = append(obs, cost.Obs{H: float64(fan * lv.batch), Us: float64(t1.Sub(t0).Nanoseconds()) / 1e3})
					t0 = t1
				}
			}
		}
	})
	return obs, err
}

// MeasureAll measures (g, L) across processor counts for the named
// transports.
func MeasureAll(transports []string, procs []int) (map[string][]MeasuredParams, error) {
	out := make(map[string][]MeasuredParams)
	for _, name := range transports {
		tr, err := transport.New(name)
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			pr, err := MeasureParams(tr, p)
			if err != nil {
				return nil, fmt.Errorf("%s p=%d: %w", name, p, err)
			}
			out[name] = append(out[name], MeasuredParams{Transport: name, P: p, Params: pr})
		}
	}
	return out, nil
}
