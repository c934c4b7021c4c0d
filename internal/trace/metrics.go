package trace

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// Metrics are the live counters of a running machine, and they are
// exactly a fold of its event stream: observe is the only code that
// writes a counter or a histogram, and every recorded event passes
// through it once. Per rank there is one Row of atomic cells; beside
// the rows sit the (src,dst) exchange matrix and four machine-wide
// distributions. Updates happen at superstep granularity, so a scraper
// (the bsprun -metrics-addr endpoint, a cluster member's telemetry
// beat) reads a consistent-enough view while rank goroutines keep
// recording.
type Metrics struct {
	rows []RowOf[atomic.Int64]
	// computeNs stages each rank's newest compute span until the sync
	// event that ends the superstep, so StepDur gets one sample per
	// superstep (compute + barrier). Only the rank's own goroutine
	// records compute and sync events, so the cells are plain.
	computeNs []int64

	pairs []pairCells // [src*p+dst]

	// Latency/size distributions, machine-wide (no rank labels: the
	// point is the shape — straggler tails, bimodal batch sizes — and
	// per-rank totals are in the rows). Fixed log-scale buckets so
	// goldens and cross-run comparisons are stable.
	StepDur      *Hist // superstep duration (compute + barrier), ns
	SyncWait     *Hist // barrier + exchange wait, ns
	PairBatch    *Hist // per-(src,dst) batch handoff, bytes
	HeartbeatRTT *Hist // control-plane heartbeat round trip, ns
}

type pairCells struct{ bytes, frames, pkts atomic.Int64 }

func newMetrics(p int) *Metrics {
	m := &Metrics{
		rows:      make([]RowOf[atomic.Int64], p),
		computeNs: make([]int64, p),
		pairs:     make([]pairCells, p*p),

		StepDur:      newHist(durationBounds, 1e9),
		SyncWait:     newHist(durationBounds, 1e9),
		PairBatch:    newHist(byteBounds, 1),
		HeartbeatRTT: newHist(durationBounds, 1e9),
	}
	for i := range m.rows {
		m.rows[i].LastStep.Store(-1)
	}
	return m
}

// observe folds one event into the counters. Rank events arrive on
// the rank's own goroutine and control-plane kinds (KindHeartbeat and
// after) from transport goroutines, so everything shared is atomic.
func (m *Metrics) observe(e Event) {
	if m == nil {
		return
	}
	if e.Kind == KindRollback { // a machine event: every rank goes through it
		for i := range m.rows {
			m.rows[i].Rollbacks.Add(1)
		}
		return
	}
	if e.Rank < 0 || int(e.Rank) >= len(m.rows) {
		return
	}
	r := &m.rows[e.Rank]
	switch e.Kind {
	case KindCompute:
		r.WorkNs.Add(e.Dur())
		m.computeNs[e.Rank] = e.Dur()
	case KindSync:
		r.Steps.Add(1)
		r.WaitNs.Add(e.Dur())
		r.SentPkts.Add(e.A)
		r.RecvPkts.Add(e.B)
		// Core passes the machine superstep, so the gauge survives
		// rollbacks as "newest step reached".
		if int64(e.Step) > r.LastStep.Load() {
			r.LastStep.Store(int64(e.Step))
		}
		m.SyncWait.Observe(e.Dur())
		m.StepDur.Observe(m.computeNs[e.Rank] + e.Dur())
		m.computeNs[e.Rank] = 0
	case KindPair:
		if dst := e.A; dst >= 0 && dst < int64(len(m.rows)) {
			c := &m.pairs[int(e.Rank)*len(m.rows)+int(dst)]
			c.bytes.Add(e.B)
			c.frames.Add(e.C)
			c.pkts.Add(e.D)
			r.PairBytes.Add(e.B)
		}
		m.PairBatch.Observe(e.B)
	case KindCkptSave:
		r.CkptSaves.Add(1)
		r.CkptBytes.Add(e.B)
	case KindCkptRestore:
		r.Restores.Add(1)
	case KindFault:
		if FaultCode(e.A) == FaultSuspect {
			r.Suspects.Add(1)
		} else {
			r.Faults.Add(1)
		}
	case KindHeartbeat:
		if e.C > 0 { // the coordinator's echo: a measured round trip
			r.RTTNs.Add(e.C)
			r.RTTCount.Add(1)
			m.HeartbeatRTT.Observe(e.C)
		} else {
			r.Heartbeats.Add(1)
			r.LastHeartbeatSeq.Store(e.A)
			r.LastHeartbeatEpoch.Store(e.B)
		}
	case KindHeartbeatMiss:
		r.HeartbeatMisses.Add(1)
	case KindWarmRestart:
		r.WarmRestarts.Add(1)
	}
}

// Rank returns one rank's counters by value, without allocating (the
// telemetry beat reads its own row every interval). Nil-safe; a
// rank out of range reads as a row that never ran.
func (m *Metrics) Rank(i int) Row {
	row := Row{LastStep: -1}
	if m == nil || i < 0 || i >= len(m.rows) {
		return row
	}
	dst, src := fieldsOf(&row), fieldsOf(&m.rows[i])
	for k := range dst {
		*dst[k] = src[k].Load()
	}
	return row
}

// Pair is one nonzero cell of the (src,dst) exchange matrix.
type Pair struct {
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Bytes  int64 `json:"bytes"`
	Frames int64 `json:"frames"`
	Pkts   int64 `json:"pkts"`
}

// Snapshot is a plain-data copy of every counter: what expvar
// publishes, what a postmortem dump embeds, and the one input of the
// Prometheus exposition — the per-process /metrics renders a
// recorder's snapshot, the coordinator's aggregated /metrics renders
// one assembled from telemetry rows.
type Snapshot struct {
	Ranks []Row  `json:"ranks"`           // by rank
	Pairs []Pair `json:"pairs,omitempty"` // nonzero cells, by (src, dst)

	StepDur      HistSnapshot `json:"step_dur"`
	SyncWait     HistSnapshot `json:"sync_wait"`
	PairBatch    HistSnapshot `json:"pair_batch"`
	HeartbeatRTT HistSnapshot `json:"heartbeat_rtt"`
}

// Snapshot copies the counters. Safe concurrently with a running
// machine; each counter is read atomically (the set is not a single
// consistent cut, which is fine for monitoring).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	p := len(m.rows)
	s := Snapshot{
		Ranks:        make([]Row, p),
		StepDur:      m.StepDur.Snapshot(),
		SyncWait:     m.SyncWait.Snapshot(),
		PairBatch:    m.PairBatch.Snapshot(),
		HeartbeatRTT: m.HeartbeatRTT.Snapshot(),
	}
	for i := range s.Ranks {
		s.Ranks[i] = m.Rank(i)
	}
	for i := range m.pairs {
		if c := &m.pairs[i]; c.bytes.Load() > 0 {
			s.Pairs = append(s.Pairs, Pair{i / p, i % p, c.bytes.Load(), c.frames.Load(), c.pkts.Load()})
		}
	}
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (hand-rolled; the repo takes no dependencies): one
// rank-labelled family per Fields entry, the pair matrix, and whichever
// histograms the snapshot carries.
func (s Snapshot) WritePrometheus(w io.Writer) {
	family := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	for k, f := range Fields {
		family(f.Prom, f.Type, f.Help)
		for i := range s.Ranks {
			if v := *fieldsOf(&s.Ranks[i])[k]; f.Unit == "ns" {
				fmt.Fprintf(w, "%s{rank=\"%d\"} %g\n", f.Prom, i, float64(v)/1e9)
			} else {
				fmt.Fprintf(w, "%s{rank=\"%d\"} %d\n", f.Prom, i, v)
			}
		}
	}
	if len(s.Pairs) > 0 {
		for _, f := range []struct {
			name, help string
			val        func(Pair) int64
		}{
			{"bsp_pair_bytes_total", "Batch bytes shipped per (src,dst) pair.", func(c Pair) int64 { return c.Bytes }},
			{"bsp_pair_frames_total", "Frames shipped per (src,dst) pair.", func(c Pair) int64 { return c.Frames }},
			{"bsp_pair_packets_total", "Payload packet units shipped per (src,dst) pair.", func(c Pair) int64 { return c.Pkts }},
		} {
			family(f.name, "counter", f.help)
			for _, c := range s.Pairs {
				fmt.Fprintf(w, "%s{src=\"%d\",dst=\"%d\"} %d\n", f.name, c.Src, c.Dst, f.val(c))
			}
		}
	}
	for _, f := range []struct {
		name, help string
		h          HistSnapshot
	}{
		{"bsp_superstep_duration_seconds", "Superstep duration (compute plus barrier), all ranks.", s.StepDur},
		{"bsp_sync_wait_seconds", "Barrier and exchange wait per superstep, all ranks.", s.SyncWait},
		{"bsp_pair_batch_bytes", "Bytes per (src,dst) batch handoff.", s.PairBatch},
		{"bsp_heartbeat_rtt_seconds", "Control-plane heartbeat round trip, send to coordinator echo.", s.HeartbeatRTT},
	} {
		if len(f.h.Counts) == 0 {
			continue
		}
		family(f.name, "histogram", f.help)
		cum := int64(0)
		for i, b := range f.h.Bounds {
			cum += f.h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", f.name, b, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", f.name, f.h.Count, f.name, f.h.Sum, f.name, f.h.Count)
	}
}

// Handler returns an http.Handler serving the Prometheus text format
// (mount at /metrics).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Snapshot().WritePrometheus(w)
	})
}

// Hist is a fixed-bucket histogram with atomic counters: Observe is
// lock- and allocation-free, so it can sit on the superstep hot path
// and on transport control-plane goroutines. Buckets are upper bounds
// in the native unit (ns or bytes), ascending; one overflow bucket
// catches everything above the last bound.
type Hist struct {
	bounds []int64 // upper bounds (inclusive), native unit
	scale  float64 // native units per exported unit (1e9: ns → s)
	counts []atomic.Int64
	sum    atomic.Int64
}

func newHist(bounds []int64, scale float64) *Hist {
	return &Hist{bounds: bounds, scale: scale, counts: make([]atomic.Int64, len(bounds)+1)}
}

// logBounds returns n upper bounds lo, lo*base, lo*base², … — the
// fixed log-scale ladder every histogram family uses.
func logBounds(lo int64, base, n int) []int64 {
	b := make([]int64, n)
	v := lo
	for i := range b {
		b[i] = v
		v *= int64(base)
	}
	return b
}

var (
	// durationBounds spans 1µs to ~17s in powers of four: wide enough
	// for a microbenchmark superstep and a stalled barrier in the same
	// ladder.
	durationBounds = logBounds(1_000, 4, 13)
	// byteBounds spans 64B to ~16MiB in powers of four, bracketing the
	// per-pair batch sizes the transports actually ship.
	byteBounds = logBounds(64, 4, 10)
)

// Observe adds one sample in the native unit. Nil-safe, never
// allocates.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// AppendCounts appends the raw bucket counts (one per bound plus the
// overflow bucket) to dst. Nil-safe, and allocation-free given
// capacity — this is the telemetry beat's reader.
func (h *Hist) AppendCounts(dst []int64) []int64 {
	if h == nil {
		return dst
	}
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// Quantile estimates the q-quantile (0 < q <= 1) in the native unit by
// linear interpolation within the containing bucket. Samples in the
// overflow bucket report the last bound. Returns 0 on an empty
// histogram. Nil-safe.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := float64(0)
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (target - cum) / c
			return lo + int64(frac*float64(h.bounds[i]-lo))
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// HistSnapshot is a plain-data copy of a Hist in its exported unit
// (seconds for durations, bytes for sizes), fit for JSON encoding.
// Counts has one entry per bound plus a trailing overflow bucket.
type HistSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// histSnapshot assembles a snapshot from raw bucket counts on the given
// ladder; counts shorter than the ladder are zero-extended.
func histSnapshot(bounds []int64, scale float64, counts []int64, sum int64) HistSnapshot {
	s := HistSnapshot{
		Sum:    float64(sum) / scale,
		Bounds: make([]float64, len(bounds)),
		Counts: make([]int64, len(bounds)+1),
	}
	for i, b := range bounds {
		s.Bounds[i] = float64(b) / scale
	}
	copy(s.Counts, counts)
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// Snapshot copies the histogram. Safe concurrently with observers.
func (h *Hist) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	return histSnapshot(h.bounds, h.scale, h.AppendCounts(nil), h.sum.Load())
}

// DurationHist renders raw bucket counts from the duration ladder
// (what telemetry frames carry for StepDur and SyncWait) and their sum
// in ns as a snapshot, so an aggregator never guesses the ladder.
func DurationHist(counts []int64, sumNs int64) HistSnapshot {
	return histSnapshot(durationBounds, 1e9, counts, sumNs)
}
