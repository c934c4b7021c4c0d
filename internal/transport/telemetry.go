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

// pushTelemetry reads the rank's counters and ships one frame. All
// buffers (the snapshot's bucket slices, the encoder's state, the
// frame) are owned by the member and reused, so a steady-state push
// performs no allocations — the loop can run at aggressive intervals
// without disturbing the allocation-gated exchange path.
func (m *clusterMember) pushTelemetry() {
	m.tmMu.Lock()
	defer m.tmMu.Unlock()
	if m.tmFrame == nil {
		nb := len(trace.DurationBounds()) + 1
		m.tmSnap.StepDur = make([]int64, nb)
		m.tmSnap.SyncWait = make([]int64, nb)
		m.tmFrame = make([]byte, 0, 512)
	}
	t := &m.tmSnap
	t.Rank = m.rank
	t.Epoch = m.core.opts.Epoch
	t.MetricsAddr = m.telemetry.MetricsAddr
	met := m.buf.Load().Metrics()
	r := met.Rank(m.rank)
	t.LastStep = r.LastStep
	t.Steps = r.Steps
	t.WorkNs = r.WorkNs
	t.WaitNs = r.WaitNs
	t.SentPkts = r.SentPkts
	t.RecvPkts = r.RecvPkts
	t.PairBytes = met.RankSentBytes(m.rank)
	if met != nil { // until core installs the recorder, everything else stays zero
		t.HBRTTCount, t.HBRTTNs = met.HeartbeatRTT.Total()
		t.CkptSaves = met.CkptSaves.Load()
		t.Restores = met.Restores.Load()
		t.Rollbacks = met.Rollbacks.Load()
		met.StepDur.CopyCounts(t.StepDur)
		met.SyncWait.CopyCounts(t.SyncWait)
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
	dec  wire.TelemetryDecoder
	cur  wire.Telemetry // newest reconstructed snapshot (this incarnation)
	base wire.Telemetry // folded totals of dead incarnations
	seen bool

	lastAt      int64 // unix nano of the newest accepted frame
	seqGaps     int64
	baselines   int64
	convictions int64
	reason      string // newest conviction reason
	convicted   bool   // convicted and not seen since
}

func newTelemetryAgg(p int) *telemetryAgg {
	return &telemetryAgg{ranks: make([]aggRank, p), est: cost.NewOnlineEstimator()}
}

// ingest decodes one member frame and feeds the estimator with the
// interval it spans. A baseline frame is an interval from incarnation
// start, so even a job short enough to produce a single final flush
// still contributes observations.
func (a *telemetryAgg) ingest(rank int, payload []byte, now time.Time) {
	r := &a.ranks[rank]
	t, err := r.dec.Decode(payload)
	if err != nil {
		if errors.Is(err, wire.ErrTelemetryGap) {
			r.seqGaps++
		}
		return
	}
	prev := &r.cur
	if t.Seq == 1 {
		r.baselines++
		if r.seen {
			// A new incarnation: fold the finished one into the base so
			// job totals stay monotone.
			addTelemetryCounters(&r.base, &r.cur)
		}
		prev = &wire.Telemetry{}
	}
	if r.seen || t.Seq == 1 {
		a.observeInterval(prev, &t)
	}
	r.cur = t
	r.seen = true
	r.lastAt = now.UnixNano()
	r.convicted = false
}

// observeInterval feeds the estimator with one (h/step, wait/step)
// observation and the residual sums, when the interval completed any
// supersteps.
func (a *telemetryAgg) observeInterval(prev, cur *wire.Telemetry) {
	dSteps := cur.Steps - prev.Steps
	if dSteps <= 0 {
		return
	}
	dWork := cur.WorkNs - prev.WorkNs
	dWait := cur.WaitNs - prev.WaitNs
	dSent := cur.SentPkts - prev.SentPkts
	dRecv := cur.RecvPkts - prev.RecvPkts
	dH := dSent
	if dRecv > dH {
		dH = dRecv
	}
	if dWork < 0 || dWait < 0 || dH < 0 {
		return // counter went backwards: corrupt interval, drop it
	}
	a.est.Observe(float64(dH)/float64(dSteps), time.Duration(dWait/dSteps))
	a.sumWorkUs += float64(dWork) / 1e3
	a.sumWaitUs += float64(dWait) / 1e3
	a.sumH += float64(dH)
	a.sumSteps += float64(dSteps)
}

// addTelemetryCounters folds src's cumulative counters into dst
// (histogram buckets included; gauges like LastStep excluded).
func addTelemetryCounters(dst, src *wire.Telemetry) {
	dst.Steps += src.Steps
	dst.WorkNs += src.WorkNs
	dst.WaitNs += src.WaitNs
	dst.SentPkts += src.SentPkts
	dst.RecvPkts += src.RecvPkts
	dst.PairBytes += src.PairBytes
	dst.HBRTTNs += src.HBRTTNs
	dst.HBRTTCount += src.HBRTTCount
	dst.CkptSaves += src.CkptSaves
	dst.Restores += src.Restores
	dst.Rollbacks += src.Rollbacks
	dst.StepDur = addBuckets(dst.StepDur, src.StepDur)
	dst.SyncWait = addBuckets(dst.SyncWait, src.SyncWait)
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
	r.convictions++
	r.reason = reason
	r.convicted = true
}

// --- the job-level view ---

// StatusRank is one rank's row in the /status document. Counters are
// job totals across incarnations; LastStep, Seq and Epoch describe the
// current incarnation.
type StatusRank struct {
	Rank  int    `json:"rank"`
	State string `json:"state"` // live | suspect | down | left | silent
	Epoch int    `json:"epoch"`
	Seq   uint32 `json:"seq"`

	LastStep  int64 `json:"last_step"`
	Steps     int64 `json:"steps"`
	WorkNs    int64 `json:"work_ns"`
	WaitNs    int64 `json:"wait_ns"`
	SentPkts  int64 `json:"sent_pkts"`
	RecvPkts  int64 `json:"recv_pkts"`
	PairBytes int64 `json:"pair_bytes"`
	RTTAvgNs  int64 `json:"rtt_avg_ns"`
	CkptSaves int64 `json:"ckpt_saves"`
	Restores  int64 `json:"restores"`
	Rollbacks int64 `json:"rollbacks"`

	SeqGaps       int64  `json:"seq_gaps"`
	Baselines     int64  `json:"baselines"`
	Convictions   int64  `json:"convictions"`
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

// row renders one rank: the only place the dead incarnations' base and
// the current incarnation are summed. left and down are the membership
// machine's view of the rank's newest connection.
func (a *telemetryAgg) row(i int, now int64, suspectAfter time.Duration, left, down bool) StatusRank {
	r := &a.ranks[i]
	row := StatusRank{
		Rank:          i,
		Epoch:         r.cur.Epoch,
		Seq:           r.cur.Seq,
		LastStep:      -1,
		Steps:         r.base.Steps + r.cur.Steps,
		WorkNs:        r.base.WorkNs + r.cur.WorkNs,
		WaitNs:        r.base.WaitNs + r.cur.WaitNs,
		SentPkts:      r.base.SentPkts + r.cur.SentPkts,
		RecvPkts:      r.base.RecvPkts + r.cur.RecvPkts,
		PairBytes:     r.base.PairBytes + r.cur.PairBytes,
		CkptSaves:     r.base.CkptSaves + r.cur.CkptSaves,
		Restores:      r.base.Restores + r.cur.Restores,
		Rollbacks:     r.base.Rollbacks + r.cur.Rollbacks,
		SeqGaps:       r.seqGaps,
		Baselines:     r.baselines,
		Convictions:   r.convictions,
		ConvictReason: r.reason,
		MetricsAddr:   r.cur.MetricsAddr,
	}
	if n := r.base.HBRTTCount + r.cur.HBRTTCount; n > 0 {
		row.RTTAvgNs = (r.base.HBRTTNs + r.cur.HBRTTNs) / n
	}
	if r.seen {
		row.LastStep = r.cur.LastStep
		row.AgeMs = (now - r.lastAt) / 1e6
	}
	switch {
	// Conviction is authoritative even for a rank that never got a
	// telemetry frame out — the liveness plane saw it die.
	case r.convicted || down:
		row.State = "down"
	case !r.seen:
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
		for _, t := range []*wire.Telemetry{&a.ranks[i].base, &a.ranks[i].cur} {
			doc.stepDur = addBuckets(doc.stepDur, t.StepDur)
			doc.syncWait = addBuckets(doc.syncWait, t.SyncWait)
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
// exposition: rank-labeled families (one scrape target for the whole
// job instead of p member endpoints), job-wide histograms summed across
// ranks, and the calibration gauges.
func (doc StatusDoc) writeMetrics(w io.Writer) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	for _, f := range []struct {
		name, help, typ string
		val             func(r *StatusRank) any
	}{
		{"bsp_rank_supersteps_total", "Supersteps completed, per rank (job total).", "counter", func(r *StatusRank) any { return r.Steps }},
		{"bsp_rank_last_superstep", "Newest completed global superstep, per rank (-1 before the first).", "gauge", func(r *StatusRank) any { return r.LastStep }},
		{"bsp_rank_work_seconds_total", "Local computation, per rank (job total).", "counter", func(r *StatusRank) any { return secs(r.WorkNs) }},
		{"bsp_rank_wait_seconds_total", "Barrier and exchange wait, per rank (job total).", "counter", func(r *StatusRank) any { return secs(r.WaitNs) }},
		{"bsp_rank_sent_packets_total", "Packet units sent, per rank (job total).", "counter", func(r *StatusRank) any { return r.SentPkts }},
		{"bsp_rank_recv_packets_total", "Packet units received, per rank (job total).", "counter", func(r *StatusRank) any { return r.RecvPkts }},
		{"bsp_rank_pair_bytes_total", "Batch bytes shipped, per rank (job total).", "counter", func(r *StatusRank) any { return r.PairBytes }},
		{"bsp_rank_rollbacks_total", "Recovery re-executions observed, per rank (job total).", "counter", func(r *StatusRank) any { return r.Rollbacks }},
		{"bsp_rank_rtt_seconds", "Mean control-plane heartbeat round trip, per rank.", "gauge", func(r *StatusRank) any { return secs(r.RTTAvgNs) }},
		{"bsp_rank_telemetry_seq", "Newest telemetry frame sequence, per rank.", "gauge", func(r *StatusRank) any { return r.Seq }},
		{"bsp_rank_telemetry_gaps_total", "Telemetry frames lost to sequence gaps, per rank.", "counter", func(r *StatusRank) any { return r.SeqGaps }},
		{"bsp_rank_up", "1 while the rank's telemetry stream is current.", "gauge", func(r *StatusRank) any { return b2i(r.State == "live" || r.State == "suspect") }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i := range doc.Ranks {
			fmt.Fprintf(w, "%s{rank=\"%d\"} %v\n", f.name, i, f.val(&doc.Ranks[i]))
		}
	}

	fmt.Fprintf(w, "# HELP bsp_job_epoch Gang generation currently admitted.\n# TYPE bsp_job_epoch gauge\nbsp_job_epoch %d\n", doc.Epoch)

	var workNs, waitNs int64
	for _, r := range doc.Ranks {
		workNs, waitNs = workNs+r.WorkNs, waitNs+r.WaitNs
	}
	writeHist(w, "bsp_superstep_duration_seconds", "Superstep duration (compute plus barrier), all ranks.", workNs+waitNs, doc.stepDur)
	writeHist(w, "bsp_sync_wait_seconds", "Barrier and exchange wait per superstep, all ranks.", waitNs, doc.syncWait)

	c := doc.Calib
	fmt.Fprintf(w, "# HELP bsp_calib_g_us_per_packet Online least-squares estimate of g (Eq 1), microseconds per 16-byte packet.\n# TYPE bsp_calib_g_us_per_packet gauge\nbsp_calib_g_us_per_packet %g\n", c.GUsPerPkt)
	fmt.Fprintf(w, "# HELP bsp_calib_l_us Online least-squares estimate of L (Eq 1), microseconds per superstep.\n# TYPE bsp_calib_l_us gauge\nbsp_calib_l_us %g\n", c.LUs)
	fmt.Fprintf(w, "# HELP bsp_calib_window Observations in the estimator window.\n# TYPE bsp_calib_window gauge\nbsp_calib_window %d\n", c.Window)
	fmt.Fprintf(w, "# HELP bsp_calib_fit 1 when the window identifies both g and L.\n# TYPE bsp_calib_fit gauge\nbsp_calib_fit %d\n", b2i(c.Fit))
	fmt.Fprintf(w, "# HELP bsp_calib_residual_ratio Live Eq-1 residual: actual over predicted superstep time under the current fit.\n# TYPE bsp_calib_residual_ratio gauge\nbsp_calib_residual_ratio %g\n", c.LiveRatio)
}

// writeHist renders one histogram family as cumulative le buckets on the
// recorder's fixed duration ladder.
func writeHist(w io.Writer, name, help string, sumNs int64, counts []int64) {
	bounds := trace.DurationBounds()
	counts = addBuckets(make([]int64, len(bounds)+1), counts)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b)/1e9, cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(sumNs)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
