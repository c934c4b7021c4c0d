package transport

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cost"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TelemetryConfig arms a cluster member's live telemetry push loop:
// every Interval the member reads its rank's metrics atomics and sends
// a delta-encoded wire.Telemetry frame (a wire.TelemetryPush) to the
// coordinator, entirely off the superstep hot path — the push runs on
// the member's beat goroutine and touches only atomic counters the
// recorder already maintains. Interval <= 0 disables it.
type TelemetryConfig struct {
	Interval time.Duration
	// MetricsAddr is this rank's own bound /metrics address, reported
	// to the coordinator so /status can advertise real addresses
	// instead of a port convention. Optional.
	MetricsAddr string
}

// --- member side: the push (beatLoop in cluster.go paces it) ---

// pushTelemetry copies the rank's counter row and the two shipped
// histograms into the frame and sends it. All buffers (the vectors,
// the encoder's state, the frame) are owned by the member and reused,
// so a steady-state push performs no allocations — the loop can run at
// aggressive intervals without disturbing the allocation-gated
// exchange path.
func (m *clusterMember) pushTelemetry() {
	m.tmMu.Lock()
	defer m.tmMu.Unlock()
	t := &m.tmSnap
	t.MetricsAddr = m.telemetry.MetricsAddr
	met := m.buf.Load().Metrics()
	t.Counters = met.Rank(m.rank).AppendValues(t.Counters[:0])
	if met != nil { // until core installs the recorder there are no histograms
		t.StepDur = met.StepDur.AppendCounts(t.StepDur[:0])
		t.SyncWait = met.SyncWait.AppendCounts(t.SyncWait[:0])
	}
	m.tmFrame = m.tmEnc.AppendEncode(m.tmFrame[:0], t)
	m.sendCtrl(wire.TelemetryPush{Payload: m.tmFrame})
}

// --- coordinator side: the aggregator ---

// telemetryAgg is the coordinator's job-level view: one decoder and
// one reconstructed cumulative snapshot per rank, plus the online
// (g, L) estimator fed with per-interval (h, wait) observations. It
// outlives generations — a warm-restarted rank re-synchronises with a
// baseline frame, and the dead incarnation's totals are folded into a
// per-rank base so counters stay monotone for Prometheus. The
// coordinator's loop goroutine owns it, as it owns the machine.
type telemetryAgg struct {
	ranks []aggRank
	est   *cost.OnlineEstimator

	// Eq-1 running sums over every valid interval observation, for the
	// live predicted-vs-actual residual ratio.
	sumWorkUs, sumWaitUs float64
	sumH, sumSteps       float64
}

type aggRank struct {
	dec wire.TelemetryDecoder
	// cur is the newest accepted frame's row (this incarnation); base is
	// everything a /status row adds to it: the folded totals of dead
	// incarnations and what the coordinator itself counts about the
	// rank's stream (fields a member's frames leave zero).
	cur, base trace.Row
	curHist   [2][]int64 // StepDur, SyncWait buckets of cur
	baseHist  [2][]int64

	// Of the newest accepted frame: its sequence number (0 = none yet),
	// the epoch of the connection that carried it, the sender's /metrics
	// address, and its arrival time in unix nanoseconds.
	seq    uint32
	epoch  int
	addr   string
	lastAt int64

	reason    string // newest conviction reason
	convicted bool   // convicted and not seen since
}

func newTelemetryAgg(p int) *telemetryAgg {
	return &telemetryAgg{ranks: make([]aggRank, p), est: cost.NewOnlineEstimator()}
}

// ingest decodes one frame from the connection the membership machine
// knows as (rank, epoch) and feeds the estimator with the interval it
// spans. A baseline frame is an interval from incarnation start, so
// even a job short enough to produce a single final flush still
// contributes observations. A frame the decoder refuses, or whose
// counter vector is not one row wide, is counted against the rank and
// otherwise ignored.
func (a *telemetryAgg) ingest(rank, epoch int, payload []byte, now time.Time) {
	r := &a.ranks[rank]
	t, err := r.dec.Decode(payload)
	cur, ok := trace.RowFromValues(t.Counters)
	if err != nil || !ok {
		r.base.Rejects++
		if errors.Is(err, wire.ErrTelemetryGap) {
			r.base.SeqGaps++
		}
		return
	}
	prev := r.cur
	if t.Seq == 1 {
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
	r.seq, r.epoch, r.addr, r.lastAt = t.Seq, epoch, t.MetricsAddr, now.UnixNano()
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
// one (bsprun -status-dump, bsptop, tracecheck -status, bspsoak).
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
	// telemetry frame out — the liveness plane saw it die.
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
	gauge("bsp_rank_telemetry_seq", "Newest telemetry frame sequence, per rank.")
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
