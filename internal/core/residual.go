package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/trace"
)

// Residual is one superstep's check of the paper's Equation 1: its
// actual wall time beside w_i + g·h_i + L. The residual localizes where
// the model diverges — barrier straggling, exchange contention,
// checkpoint overhead, or a g/L that no longer matches the hardware.
type Residual struct {
	// Step is the superstep on the machine's global axis.
	Step int
	// Work is w_i and H is h_i (Step.MaxWork and Step.MaxH).
	Work time.Duration
	H    int
	// Actual is Step.Actual, Predicted is w_i + g·h_i + L, and
	// Residual is Actual - Predicted.
	Actual, Predicted, Residual time.Duration
	// Straggler is the rank that arrived at the barrier last.
	Straggler int
}

// Ratio returns Actual/Predicted (0 when Predicted is 0).
func (r Residual) Ratio() float64 {
	if r.Predicted == 0 {
		return 0
	}
	return float64(r.Actual) / float64(r.Predicted)
}

// Residuals returns one row per superstep that some rank recorded
// under machine parameters pm, in step order. Rows are numbered on the
// global axis: a run resumed from a checkpoint starts at
// Ckpt.ResumeStep. The trailing segment after the last Sync pays no L
// and has no row.
func (s *Stats) Residuals(pm cost.Params) []Residual {
	base := 0
	if s.Ckpt != nil {
		base = s.Ckpt.ResumeStep
	}
	var rows []Residual
	for i, st := range s.Steps[:s.Syncs] {
		if st.Straggler < 0 {
			continue
		}
		pred := pm.Predict(st.MaxWork, st.MaxH, 1)
		rows = append(rows, Residual{Step: base + i, Work: st.MaxWork, H: st.MaxH,
			Actual: st.Actual, Predicted: pred, Residual: st.Actual - pred, Straggler: st.Straggler})
	}
	return rows
}

// StatsFromTrace replays a quiescent recorder's compute and barrier
// spans into step records and folds them as a run folds its own, on
// the global superstep axis — the account of a run whose Stats live in
// other processes (a merged cluster trace, postmortem flight rings).
// The latest compute span of a (rank, step) wins: recovery re-executed
// it. A superstep whose compute span has no matching barrier span is
// skipped, since a flight ring may have lost one of the pair; only the
// trailing segment after the last barrier stands without one.
func StatsFromTrace(rec *trace.Recorder) *Stats {
	evs := rec.Events()
	syncs := 0
	for _, e := range evs {
		if e.Kind == trace.KindSync {
			syncs = max(syncs, int(e.Step)+1)
		}
	}
	recs := make([][]stepRecord, rec.P())
	for r := range recs {
		recs[r] = make([]stepRecord, syncs+1)
	}
	for _, e := range evs {
		if e.Rank < 0 || e.Step < 0 || int(e.Step) > syncs {
			continue
		}
		r := &recs[e.Rank][e.Step]
		switch {
		case e.Kind == trace.KindCompute:
			*r = stepRecord{start: e.Start, arrive: e.End, units: int(e.A)}
			if int(e.Step) == syncs {
				r.release = e.End
			}
		case e.Kind == trace.KindSync && e.Start == r.arrive:
			r.release, r.sent, r.recv = e.End, int(e.A), int(e.B)
		}
	}
	return foldSteps(rec.P(), syncs, recs)
}

// WriteResidualReport prints the per-superstep predicted-vs-actual
// table of st for machine parameters pm (named name), marking the flag
// worst-diverging supersteps (0 means 3).
func WriteResidualReport(w io.Writer, st *Stats, name string, pm cost.Params, flag int) {
	rows := st.Residuals(pm)
	if len(rows) == 0 {
		fmt.Fprintln(w, "cost report: no completed supersteps recorded")
		return
	}
	if flag <= 0 {
		flag = 3
	}
	abs := func(d time.Duration) time.Duration { return max(d, -d) }
	worst := make([]int, len(rows))
	for i := range worst {
		worst[i] = i
	}
	sort.SliceStable(worst, func(a, b int) bool {
		return abs(rows[worst[a]].Residual) > abs(rows[worst[b]].Residual)
	})
	flagged := map[int]bool{}
	for _, i := range worst[:min(flag, len(worst))] {
		flagged[i] = true
	}
	var sumW, sumActual, sumPred time.Duration
	sumH := 0
	fmt.Fprintf(w, "cost-model residuals (%s: g=%.3gus/pkt, L=%.4gus): T_i = w_i + g*h_i + L\n", name, pm.G, pm.L)
	fmt.Fprintf(w, "  %-5s %12s %8s %12s %12s %12s %7s %9s\n",
		"step", "w_i", "h_i", "predicted", "actual", "residual", "ratio", "straggler")
	for i, row := range rows {
		mark := ""
		if flagged[i] {
			mark = "  <- worst"
		}
		fmt.Fprintf(w, "  %-5d %12v %8d %12v %12v %+12v %7.2f %9d%s\n",
			row.Step, row.Work.Round(time.Microsecond), row.H,
			row.Predicted.Round(time.Microsecond), row.Actual.Round(time.Microsecond),
			row.Residual.Round(time.Microsecond), row.Ratio(), row.Straggler, mark)
		sumW += row.Work
		sumH += row.H
		sumActual += row.Actual
		sumPred += row.Predicted
	}
	total := pm.Predict(sumW, sumH, len(rows))
	fmt.Fprintf(w, "  total: W=%v H=%d S=%d predicted %v (per-step sum %v), actual %v\n",
		sumW.Round(time.Microsecond), sumH, len(rows),
		total.Round(time.Microsecond), sumPred.Round(time.Microsecond),
		sumActual.Round(time.Microsecond))
}
