package transport

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cost"
	"repro/internal/trace"
	"repro/internal/wire"
)

// --- member side: the beat (beatLoop in cluster.go paces it) ---

// beat sends one Ping. Once core has installed the rank's recorder, the
// Ping carries the rank's counter row and the two shipped histograms as
// its tail, absolute since the recorder's epoch. The snapshot and frame
// buffers are reused, so a steady-state tail costs no allocations — the
// beat can run at aggressive intervals without disturbing the
// allocation-gated exchange path. The beat is counted before the
// snapshot, so the tail includes it.
func (m *clusterMember) beat() {
	m.hbSeq++
	epoch := m.core.opts.Epoch
	ping := wire.Ping{Heartbeat: wire.Heartbeat{Rank: m.rank, Epoch: epoch, Seq: m.hbSeq}}
	if b := m.buf.Load(); b != nil {
		b.Heartbeat(int(m.hbSeq), epoch)
		t, met := &m.tmSnap, b.Metrics()
		t.Epoch, t.MetricsAddr = b.EpochWall().UnixNano(), m.metricsAddr
		t.Counters = met.Rank(m.rank).AppendValues(t.Counters[:0])
		t.StepDur = met.StepDur.AppendCounts(t.StepDur[:0])
		t.SyncWait = met.SyncWait.AppendCounts(t.SyncWait[:0])
		m.tmFrame = wire.AppendTelemetry(m.tmFrame[:0], t)
		ping.Tail = m.tmFrame
	}
	m.hbSentSeq.Store(int64(m.hbSeq))
	m.hbSentAt.Store(time.Now().UnixNano())
	m.sendCtrl(ping)
}

// --- coordinator side: the aggregator ---

// telemetryAgg is the coordinator's job-level view: the newest
// telemetry tail per rank, plus the online (g, L) estimator fed with
// per-interval (h, wait) observations. It outlives generations: a tail
// from a new recorder (a relaunched process) starts a new incarnation,
// and the dead incarnation's totals are folded into a per-rank base so
// counters stay monotone for Prometheus. The coordinator's loop
// goroutine owns it, as it owns the machine.
type telemetryAgg struct {
	ranks []aggRank
	est   *cost.OnlineEstimator

	// Eq-1 running sums over every valid interval observation, for the
	// live predicted-vs-actual residual ratio.
	sumWorkUs, sumWaitUs float64
	sumH, sumSteps       float64
}

type aggRank struct {
	// cur is the newest accepted tail's row (this incarnation); base is
	// everything a /status row adds to it: the folded totals of dead
	// incarnations and what the coordinator itself counts about the
	// rank's stream (fields a member's tails leave zero).
	cur, base trace.Row
	curHist   [2][]int64 // StepDur, SyncWait buckets of cur
	baseHist  [2][]int64

	// Of the newest accepted tail: the recorder epoch it counts from,
	// the sequence number and gang epoch of the beat that carried it
	// (seq 0 = none yet), the sender's /metrics address, and its arrival
	// time in unix nanoseconds.
	recEpoch int64
	seq      uint32
	epoch    int
	addr     string
	lastAt   int64

	reason    string // newest conviction reason
	convicted bool   // convicted and not seen since
}

func newTelemetryAgg(p int) *telemetryAgg {
	return &telemetryAgg{ranks: make([]aggRank, p), est: cost.NewOnlineEstimator()}
}

// ingest decodes the tail of a valid beat (the membership machine has
// checked its rank and epoch) and feeds the estimator with the interval
// since the rank's previous tail. A tail from a recorder other than the
// current one starts an incarnation, whose first interval runs from the
// recorder's start, so even a job short enough to produce a single
// final beat still contributes observations; the same recorder
// continues its incarnation, also when it rejoins at a new gang epoch.
// A tail that does not decode, or whose counter vector is not one row
// wide, is counted against the rank and otherwise ignored.
func (a *telemetryAgg) ingest(hb wire.Heartbeat, tail []byte, now time.Time) {
	r := &a.ranks[hb.Rank]
	t, err := wire.DecodeTelemetry(tail)
	cur, ok := trace.RowFromValues(t.Counters)
	if err != nil || !ok {
		r.base.Rejects++
		return
	}
	prev := r.cur
	if r.seq == 0 || t.Epoch != r.recEpoch {
		r.base.Baselines++
		// A new incarnation: fold the finished one into the base so job
		// totals stay monotone.
		trace.AddCounters(&r.base, &r.cur)
		for i := range r.baseHist {
			r.baseHist[i] = addBuckets(r.baseHist[i], r.curHist[i])
		}
		prev = trace.Row{}
	}
	a.observeInterval(&prev, &cur)
	r.cur, r.curHist = cur, [2][]int64{t.StepDur, t.SyncWait}
	r.recEpoch, r.seq, r.epoch, r.addr, r.lastAt = t.Epoch, hb.Seq, hb.Epoch, t.MetricsAddr, now.UnixNano()
	r.convicted = false
}

// observeInterval feeds the estimator with one (h/step, wait/step)
// observation and the residual sums, when the interval completed any
// supersteps.
func (a *telemetryAgg) observeInterval(prev, cur *trace.Row) {
	dSteps := cur.Steps - prev.Steps
	if dSteps <= 0 {
		return
	}
	dWork := cur.WorkNs - prev.WorkNs
	dWait := cur.WaitNs - prev.WaitNs
	dH := max(cur.SentPkts-prev.SentPkts, cur.RecvPkts-prev.RecvPkts)
	if dWork < 0 || dWait < 0 || dH < 0 {
		return // counter went backwards: corrupt interval, drop it
	}
	a.est.Observe(float64(dH)/float64(dSteps), time.Duration(dWait/dSteps))
	a.sumWorkUs += float64(dWork) / 1e3
	a.sumWaitUs += float64(dWait) / 1e3
	a.sumH += float64(dH)
	a.sumSteps += float64(dSteps)
}

func addBuckets(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// convict marks a rank as convicted by the failure detector (crash
// declaration). Cleared when a new incarnation of the rank reports.
func (a *telemetryAgg) convict(rank int, reason string) {
	r := &a.ranks[rank]
	r.base.Convictions++
	r.reason = reason
	r.convicted = true
}

// --- the job-level view ---

// StatusRank is one rank's row in the /status document. The embedded
// counters are job totals across incarnations; the gauges among them,
// Seq and Epoch describe the current incarnation.
type StatusRank struct {
	Rank  int    `json:"rank"`
	State string `json:"state"` // live | suspect | down | left | silent
	Epoch int    `json:"epoch"`
	Seq   uint32 `json:"seq"`
	trace.Row
	RTTAvgNs      int64  `json:"rtt_avg_ns"`
	ConvictReason string `json:"convict_reason,omitempty"`
	MetricsAddr   string `json:"metrics_addr,omitempty"`
	AgeMs         int64  `json:"age_ms"`
}

// StatusCalib is the online (g, L) fit in the /status document.
// LiveRatio is the running Eq-1 residual: observed superstep time
// (work + wait) over predicted (work + g·h + L·steps) under the
// current fit — ~1.0 when the model explains the job.
type StatusCalib struct {
	GUsPerPkt   float64 `json:"g_us_per_pkt"`
	LUs         float64 `json:"l_us"`
	Window      int     `json:"window"`
	Fit         bool    `json:"fit"`
	LiveRatio   float64 `json:"live_ratio"`
	ActualUs    float64 `json:"actual_us"`
	PredictedUs float64 `json:"predicted_us"`
}

// StatusDoc is the one job-level view: the coordinator serves it at
// /status, renders /metrics from it, and the launcher keeps the final
// one (bsprun -status-dump, bspobs top, bspobs check -status, and the
// warm-recovery test in internal/ckpt).
type StatusDoc struct {
	Job   string       `json:"job"`
	P     int          `json:"p"`
	Epoch int          `json:"epoch"`
	Ranks []StatusRank `json:"ranks"`
	Calib StatusCalib  `json:"calib"`

	stepDur, syncWait []int64 // job-wide histogram bucket counts, for /metrics
}

// row renders one rank: the only place the current incarnation and
// the base are summed. left and down are the membership machine's view
// of the rank's newest connection.
func (a *telemetryAgg) row(i int, now int64, suspectAfter time.Duration, left, down bool) StatusRank {
	r := &a.ranks[i]
	row := StatusRank{Rank: i, Epoch: r.epoch, Seq: r.seq, Row: r.cur, ConvictReason: r.reason, MetricsAddr: r.addr}
	trace.AddCounters(&row.Row, &r.base)
	if row.RTTCount > 0 {
		row.RTTAvgNs = row.RTTNs / row.RTTCount
	}
	if r.seq > 0 {
		row.AgeMs = (now - r.lastAt) / 1e6
	} else {
		row.LastStep = -1
	}
	switch {
	// Conviction is authoritative even for a rank that never got a
	// telemetry tail out — the liveness plane saw it die.
	case r.convicted || down:
		row.State = "down"
	case r.seq == 0:
		row.State = "silent"
	case left:
		row.State = "left"
	case suspectAfter > 0 && now-r.lastAt > int64(suspectAfter):
		row.State = "suspect"
	default:
		row.State = "live"
	}
	return row
}

// status renders the job-level document from the aggregate and the
// membership machine (epoch; whether each rank's newest connection has
// ended, with or without a Leave).
func (a *telemetryAgg) status(m *coordMachine, now time.Time) StatusDoc {
	doc := StatusDoc{Job: m.opts.JobID, P: m.p, Epoch: m.epoch, Ranks: make([]StatusRank, m.p)}
	for i, mem := range m.newest {
		gone := mem != nil && mem.gone
		doc.Ranks[i] = a.row(i, now.UnixNano(), m.opts.SuspectAfter, gone && mem.left, gone && !mem.left)
		for _, h := range [][2][]int64{a.ranks[i].baseHist, a.ranks[i].curHist} {
			doc.stepDur = addBuckets(doc.stepDur, h[0])
			doc.syncWait = addBuckets(doc.syncWait, h[1])
		}
	}
	pm, ok := a.est.Fit()
	c := &doc.Calib
	*c = StatusCalib{GUsPerPkt: pm.G, LUs: pm.L, Window: a.est.N(), Fit: ok, ActualUs: a.sumWorkUs + a.sumWaitUs}
	c.PredictedUs = a.sumWorkUs + pm.G*a.sumH + pm.L*a.sumSteps
	if c.PredictedUs > 0 {
		c.LiveRatio = c.ActualUs / c.PredictedUs
	}
	return doc
}

// writeMetrics renders the document as the aggregated Prometheus
// exposition: the same rank-labelled families a member's own /metrics
// serves (one scrape target for the whole job instead of p member
// endpoints), job-wide histograms summed across ranks, and the gauges
// only the coordinator knows.
func (doc StatusDoc) writeMetrics(w io.Writer) {
	snap := trace.Snapshot{Ranks: make([]trace.Row, len(doc.Ranks))}
	var workNs, waitNs int64
	for i, r := range doc.Ranks {
		snap.Ranks[i] = r.Row
		workNs, waitNs = workNs+r.WorkNs, waitNs+r.WaitNs
	}
	snap.StepDur = trace.DurationHist(doc.stepDur, workNs+waitNs)
	snap.SyncWait = trace.DurationHist(doc.syncWait, waitNs)
	snap.WritePrometheus(w)

	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	b2f := map[bool]float64{true: 1}
	gauge("bsp_rank_up", "1 while the rank's telemetry stream is current.")
	for i, r := range doc.Ranks {
		fmt.Fprintf(w, "bsp_rank_up{rank=\"%d\"} %g\n", i, b2f[r.State == "live" || r.State == "suspect"])
	}
	gauge("bsp_rank_telemetry_seq", "Sequence number of the newest beat that carried telemetry, per rank.")
	for i, r := range doc.Ranks {
		fmt.Fprintf(w, "bsp_rank_telemetry_seq{rank=\"%d\"} %d\n", i, r.Seq)
	}
	c := doc.Calib
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"bsp_job_epoch", "Gang generation currently admitted.", float64(doc.Epoch)},
		{"bsp_calib_g_us_per_packet", "Online Theil-Sen estimate of g (Eq 1), microseconds per 16-byte packet.", c.GUsPerPkt},
		{"bsp_calib_l_us", "Online Theil-Sen estimate of L (Eq 1), microseconds per superstep.", c.LUs},
		{"bsp_calib_window", "Observations in the estimator window.", float64(c.Window)},
		{"bsp_calib_fit", "1 when the window identifies both g and L.", b2f[c.Fit]},
		{"bsp_calib_residual_ratio", "Live Eq-1 residual: actual over predicted superstep time under the current fit.", c.LiveRatio},
	} {
		gauge(g.name, g.help)
		fmt.Fprintf(w, "%s %g\n", g.name, g.v)
	}
}
