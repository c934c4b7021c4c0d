package core

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Step summarizes one superstep across all processes.
type Step struct {
	// MaxWork is w_i: the largest local computation time of any process
	// during the superstep.
	MaxWork time.Duration
	// SumWork is the total local computation across processes.
	SumWork time.Duration
	// MaxUnits/SumUnits are the abstract work-unit analogues of
	// MaxWork/SumWork (see Proc.AddWork).
	MaxUnits int
	SumUnits int
	// MaxH is h_i: the largest number of packets sent or received by
	// any process during the superstep.
	MaxH int
	// SumSent is the total number of packets sent during the superstep.
	SumSent int
	// Actual is the superstep's wall time: from the earliest compute
	// start to the latest barrier release of any process.
	Actual time.Duration
	// Straggler is the process that arrived at the barrier last — the
	// one the others waited for — or -1 when no process recorded the
	// superstep.
	Straggler int
}

// Stats are the merged per-superstep measurements of a BSP run. They
// provide the program parameters of the BSP cost model (Equation 1):
// work depth W, communication volume H and superstep count S.
type Stats struct {
	// P is the number of processes.
	P int
	// Syncs is S, the number of global synchronizations.
	Syncs int
	// Steps has Syncs+1 entries: one per superstep plus the trailing
	// computation segment after the final synchronization.
	Steps []Step
	// Ckpt summarizes checkpoint capture and recovery; nil unless the
	// run had checkpointing armed.
	Ckpt *CkptStats
	// Live is the liveness view of the finished run — last completed
	// superstep and control-plane heartbeat round-trip quantiles; nil
	// unless the run recorded traces (cfg.Trace).
	Live *LiveStats
}

// LiveStats summarizes the run's liveness telemetry.
type LiveStats struct {
	// LastStep is the highest superstep any locally-hosted rank
	// completed a barrier for (-1 = none). Monotone across rollbacks:
	// re-executed supersteps never move it backwards.
	LastStep int64
	// RTTCount is the number of heartbeat round trips measured; the
	// quantiles below are meaningful only when it is nonzero (only
	// cluster members heartbeat).
	RTTCount int64
	// RTTp50 and RTTp99 are heartbeat round-trip quantiles, estimated
	// from the recorder's histogram by linear interpolation.
	RTTp50, RTTp99 time.Duration
}

// liveStatsFrom reads the liveness summary off the run's metrics.
func liveStatsFrom(m *trace.Metrics, p int) *LiveStats {
	if m == nil {
		return nil
	}
	lv := &LiveStats{LastStep: -1}
	for i := 0; i < p; i++ {
		row := m.Rank(i)
		lv.LastStep = max(lv.LastStep, row.LastStep)
		lv.RTTCount += row.RTTCount
	}
	if lv.RTTCount > 0 {
		lv.RTTp50 = time.Duration(m.HeartbeatRTT.Quantile(0.50))
		lv.RTTp99 = time.Duration(m.HeartbeatRTT.Quantile(0.99))
	}
	return lv
}

// S returns the number of supersteps (global synchronizations).
func (s *Stats) S() int { return s.Syncs }

// W returns the work depth: the sum over supersteps of the largest local
// computation performed by any process (including the trailing segment).
func (s *Stats) W() time.Duration {
	var w time.Duration
	for _, st := range s.Steps {
		w += st.MaxWork
	}
	return w
}

// H returns the sum over supersteps of the h-relation sizes, in packets.
func (s *Stats) H() int {
	h := 0
	for _, st := range s.Steps {
		h += st.MaxH
	}
	return h
}

// TotalWork returns the sum of the local computation done by all
// processes: "this specifically does not include idle times caused by
// load imbalance, or any communication time" (§3).
func (s *Stats) TotalWork() time.Duration {
	var w time.Duration
	for _, st := range s.Steps {
		w += st.SumWork
	}
	return w
}

// TotalPkts returns the total number of packets sent by all processes.
func (s *Stats) TotalPkts() int {
	n := 0
	for _, st := range s.Steps {
		n += st.SumSent
	}
	return n
}

// WUnits returns the work depth in abstract work units: the sum over
// supersteps of the largest unit count reported by any process.
func (s *Stats) WUnits() int {
	w := 0
	for _, st := range s.Steps {
		w += st.MaxUnits
	}
	return w
}

// TotalUnits returns the total abstract work across all processes.
func (s *Stats) TotalUnits() int {
	w := 0
	for _, st := range s.Steps {
		w += st.SumUnits
	}
	return w
}

// String summarizes the run in the paper's (W, H, S) vocabulary, with
// the checkpoint/recovery summary appended when the run recorded one.
func (s *Stats) String() string {
	out := fmt.Sprintf("P=%d S=%d W=%v H=%d totalwork=%v pkts=%d",
		s.P, s.S(), s.W(), s.H(), s.TotalWork(), s.TotalPkts())
	if ck := s.Ckpt; ck != nil {
		out += fmt.Sprintf(" ckpt[snaps=%d cuts=%d bytes=%d attempts=%d resume=%d]",
			ck.Snapshots, ck.Cuts, ck.Bytes, ck.Attempts, ck.ResumeStep)
	}
	if lv := s.Live; lv != nil {
		out += fmt.Sprintf(" live[laststep=%d", lv.LastStep)
		if lv.RTTCount > 0 {
			out += fmt.Sprintf(" hb_rtt_p50=%v p99=%v",
				lv.RTTp50.Round(10*time.Microsecond), lv.RTTp99.Round(10*time.Microsecond))
		}
		out += "]"
	}
	return out
}

// mergeStats folds the per-process step records into machine-wide
// statistics. All locally-hosted processes must have recorded the same
// number of steps; the concurrent transports guarantee this for runs
// that complete without error. In a cluster member, procs has entries
// only for the ranks this process hosts: Stats then describe the local
// ranks' contribution to the machine (P stays the machine width).
func mergeStats(p int, procs []*Proc) (*Stats, error) {
	steps, first := -1, -1
	recs := make([][]stepRecord, len(procs))
	for i, pr := range procs {
		if pr == nil {
			continue
		}
		recs[i] = pr.steps
		if steps == -1 {
			steps, first = len(pr.steps), i
		} else if len(pr.steps) != steps {
			return nil, fmt.Errorf("bsp: superstep counts diverged: process %d ran %d segments, process %d ran %d", first, steps, i, len(pr.steps))
		}
	}
	if steps == -1 {
		return nil, fmt.Errorf("bsp: no process produced statistics")
	}
	return foldSteps(p, steps-1, recs), nil
}

// foldSteps is the one fold of step records into Stats, for a run's
// own records and for those StatsFromTrace replays. recs[r] holds rank
// r's records by superstep (nil for a rank not hosted here); a zero
// record is a superstep the rank did not record.
func foldSteps(p, syncs int, recs [][]stepRecord) *Stats {
	st := &Stats{P: p, Syncs: syncs, Steps: make([]Step, syncs+1)}
	for i := range st.Steps {
		s := &st.Steps[i]
		s.Straggler = -1
		var first, last, lastArrive int64
		for r, rs := range recs {
			if i >= len(rs) || rs[i].release == 0 {
				continue
			}
			rec := rs[i]
			work := time.Duration(rec.arrive - rec.start)
			s.MaxWork = max(s.MaxWork, work)
			s.SumWork += work
			s.MaxUnits = max(s.MaxUnits, rec.units)
			s.SumUnits += rec.units
			s.MaxH = max(s.MaxH, max(rec.sent, rec.recv))
			s.SumSent += rec.sent
			if s.Straggler < 0 || rec.start < first {
				first = rec.start
			}
			if s.Straggler < 0 || rec.arrive > lastArrive {
				lastArrive, s.Straggler = rec.arrive, r
			}
			last = max(last, rec.release)
		}
		s.Actual = time.Duration(last - first)
	}
	return st
}

// LoadImbalance returns the ratio of the work depth to the ideal
// balanced depth (total work ÷ P), in work units: 1.0 means perfectly
// balanced supersteps, larger values quantify the idle time the BSP
// barrier converts from imbalance ("this specifically does not include
// idle times caused by load imbalance" — the paper's total work;
// LoadImbalance is exactly that excluded idleness, made visible).
// It returns 0 when no work units were recorded.
func (s *Stats) LoadImbalance() float64 {
	total := s.TotalUnits()
	if total == 0 {
		return 0
	}
	ideal := float64(total) / float64(s.P)
	return float64(s.WUnits()) / ideal
}
