// Package harness regenerates the paper's evaluation: every table and
// figure of the SPAA'96 Green BSP paper, as described in DESIGN.md §4.
//
// Methodology (DESIGN.md §2): the program parameters (W, H, S, total
// work) of every configuration are measured with the deterministic
// single-processor simulation transport — the analogue of the paper's
// "IPC shared-memory single-processor simulation" — and the BSP cost
// model with each evaluation machine's (g, L) from Figure 2.1 predicts
// the parallel running times and speed-ups. Paper values are printed
// alongside for comparison.
package harness

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/transport"
)

// Row is one experiment configuration's measurements.
type Row struct {
	App  string
	Size int
	NP   int
	// W is the work depth, H the summed h-relation size (packets), S
	// the superstep count, TotalWork the summed local computation —
	// all measured on the sim transport.
	W         time.Duration
	H, S      int
	TotalWork time.Duration
	// WU and TotalWU are the abstract work-unit analogues of W and
	// TotalWork (see core.Proc.AddWork): operation counts that
	// reproduce the paper's compute-dominated work balance, free of the
	// host's message-preparation overhead.
	WU, TotalWU int
	// SeqTime is the measured one-processor time of the same program
	// (the paper's speed-up baseline).
	SeqTime time.Duration
}

// CalibrationFactor returns seconds-per-work-unit for one application's
// rows, anchored so that the one-processor work depth of the largest
// size with a paper measurement equals the paper's W (SGI seconds). The
// host's relative measurements (unit ratios, H, S) stay untouched; only
// the CPU-speed unit is taken from the paper's own baseline, standing in
// for the 1996 hardware we cannot run (DESIGN.md §2). Rows without any
// paper anchor fall back to the host's wall-clock seconds per unit.
func CalibrationFactor(rows []Row) float64 {
	var anchor Row
	var paperW float64
	for _, r := range rows {
		if r.NP != 1 || r.WU == 0 {
			continue
		}
		if pr, ok := PaperRowFor(r.App, r.Size, 1); ok && r.Size >= anchor.Size {
			anchor, paperW = r, pr.W
		}
	}
	if paperW > 0 {
		return paperW / float64(anchor.WU)
	}
	for _, r := range rows {
		if r.NP == 1 && r.WU > 0 {
			return r.W.Seconds() / float64(r.WU)
		}
	}
	return 1e-9
}

// CalW returns the calibrated work depth given a seconds-per-unit
// factor.
func (r Row) CalW(factor float64) time.Duration {
	return time.Duration(float64(r.WU) * factor * 1e9)
}

// CalTotalWork returns the calibrated total work.
func (r Row) CalTotalWork(factor float64) time.Duration {
	return time.Duration(float64(r.TotalWU) * factor * 1e9)
}

// PredictCal evaluates the cost model with the calibrated work depth.
func (r Row) PredictCal(m cost.Machine, factor float64) time.Duration {
	return m.Predict(r.NP, r.CalW(factor), r.H, r.S)
}

// SpeedupCal is the model speed-up with calibrated work.
func (r Row) SpeedupCal(m cost.Machine, seq Row, factor float64) float64 {
	return cost.Speedup(seq.PredictCal(m, factor), r.PredictCal(m, factor))
}

// Predict evaluates the cost model for this row on machine m.
func (r Row) Predict(m cost.Machine) time.Duration {
	return m.Predict(r.NP, r.W, r.H, r.S)
}

// PredictComm returns the predicted communication + synchronization
// time on machine m (Figure 1.1's third series).
func (r Row) PredictComm(m cost.Machine) time.Duration {
	return m.Params(r.NP).CommTime(r.H, r.S)
}

// Speedup returns the model speed-up on machine m: predicted
// one-processor time over predicted NP-processor time, using this row's
// own W for the parallel machine and seq for the baseline.
func (r Row) Speedup(m cost.Machine, seq Row) float64 {
	return cost.Speedup(seq.Predict(m), r.Predict(m))
}

// Sizes returns the benchmark input sizes for app: the paper's sizes in
// full mode (up to the registration's FullMax), the registration's
// scaled-down counterparts otherwise or where the paper has none.
func Sizes(app string, full bool) []int {
	a, err := apps.Lookup(app)
	if err != nil {
		return nil
	}
	var sizes []int
	if full {
		for _, size := range PaperSizes(app) {
			if a.FullMax == 0 || size <= a.FullMax {
				sizes = append(sizes, size)
			}
		}
	}
	if len(sizes) == 0 {
		sizes = a.Sizes
	}
	return sizes
}

// Procs returns the processor counts evaluated for app: the paper's
// 1, 2, 4, 8, 16 where the application runs on them, with 9 standing in
// for 8 where it does not (Cannon's square grid).
func Procs(app string) []int {
	a, err := apps.Lookup(app)
	if err != nil {
		return nil
	}
	var procs []int
	for _, p := range []int{1, 2, 4, 8, 9, 16} {
		if a.CheckP(p) == nil && (p != 9 || a.CheckP(8) != nil) {
			procs = append(procs, p)
		}
	}
	return procs
}

// Apps lists the registered applications the paper evaluates (the ones
// with Appendix C rows), in registry order.
func Apps() []string {
	var names []string
	for _, a := range apps.All {
		if len(PaperSizes(a.Name)) > 0 {
			names = append(names, a.Name)
		}
	}
	return names
}

// Collect measures one application across sizes × processor counts on
// the sim transport, including the sequential baseline per size.
// Processor counts the application cannot run on are skipped.
func Collect(app string, sizes, procs []int) ([]Row, error) {
	a, err := apps.Lookup(app)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, size := range sizes {
		inst := a.New(size)
		t0 := time.Now()
		inst.Sequential()
		seqTime := time.Since(t0)
		for _, p := range procs {
			if a.CheckP(p) != nil {
				continue
			}
			_, st, err := inst.Run(core.Config{P: p, Transport: transport.SimTransport{}})
			if err != nil {
				return nil, fmt.Errorf("%s size=%d p=%d: %w", app, size, p, err)
			}
			rows = append(rows, Row{
				App: app, Size: size, NP: p,
				W: st.W(), H: st.H(), S: st.S(),
				TotalWork: st.TotalWork(),
				WU:        st.WUnits(), TotalWU: st.TotalUnits(),
				SeqTime: seqTime,
			})
		}
	}
	return rows, nil
}

// baselineFor returns the NP=1 row of the same app/size.
func baselineFor(rows []Row, r Row) Row {
	for _, b := range rows {
		if b.App == r.App && b.Size == r.Size && b.NP == 1 {
			return b
		}
	}
	return r
}
