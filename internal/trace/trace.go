// Package trace is the observability layer of the BSP library: a
// low-overhead, race-safe recorder of per-superstep events that core
// and the transports feed while a machine runs.
//
// The paper's methodology is built on per-superstep quantities — the
// work depths w_i, the h-relation sizes h_i and the superstep count S
// that Equation 1 turns into a predicted time T = W + g·H + L·S. The
// recorder makes those quantities visible *inside* a run instead of
// only as post-hoc aggregates: every rank records a compute span and a
// barrier/exchange span per superstep (straggler attribution falls out
// of comparing barrier-arrive times), the transports record one event
// per (src,dst) batch handed over (bytes and frame counts), and the
// checkpoint/recovery machinery records save and restore spans, fault
// injections and rollbacks. BSP's barrier structure makes the
// superstep the natural trace unit: the same per-superstep cost
// decomposition that BSP lower-bound analyses treat as the first-class
// object.
//
// Concurrency and overhead contract:
//
//   - Each rank appends to its own Buf from its own goroutine — no
//     locks, no atomics on the event path. Machine-level events
//     (rollbacks, which happen between attempts when no rank runs) go
//     through the Recorder's mutex.
//   - The disabled path is a nil check only: every Buf method is safe
//     on a nil receiver and returns immediately, and core/transport
//     call sites guard with a single pointer test. With tracing off the
//     exchange hot path allocates exactly what it did before the
//     recorder existed (enforced by core's TestExchangeAllocGate).
//   - Live metrics (Metrics) are a fold of the event stream into atomic
//     counters: every event is emitted once (ring, event slice, fold),
//     at superstep granularity — O(p) updates per superstep, never per
//     message — so an HTTP scraper can read them while the machine runs
//     without racing the event buffers.
//
// Consumers: WriteChrome renders the merged timeline as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing, one
// track per rank). The compute and barrier spans carry core's own step
// times, so core.StatsFromTrace replays them into the same per-
// superstep account a run's Stats hold.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindCompute is one rank's local-computation span of one
	// superstep; A holds the abstract work units reported via AddWork.
	KindCompute Kind = iota + 1
	// KindSync is one rank's barrier span: Start is barrier-arrive
	// (the rank finished computing and entered the transport Sync),
	// End is barrier-release. A and B hold the packets sent and
	// received in the superstep the span ends; C holds the self-
	// delivered packet units (messages the rank sent to itself),
	// which a trace validator subtracts when reconciling against the
	// inter-rank-only Pair events.
	KindSync
	// KindExchange is a transport-level data-movement span nested
	// inside a KindSync span: the exchange engine's call into the
	// transport's link, once per superstep on every transport.
	KindExchange
	// KindPair is one (src,dst) batch handoff: Rank is the sender, A
	// the destination rank, B the batch bytes, C the frame count, D
	// the payload size in packet units (core's h-relation currency).
	KindPair
	// KindCkptSave is a checkpoint capture span at a superstep
	// boundary; B holds the snapshot bytes written.
	KindCkptSave
	// KindCkptRestore is a resumed rank's restore span, up to the Keep
	// that fills its state; Step is the boundary the snapshot was
	// captured at.
	KindCkptRestore
	// KindFault is an injected chaos fault (instant); A holds the
	// FaultCode, B a fault-specific auxiliary (duration in ns for
	// delays and stalls).
	KindFault
	// KindRollback is a machine-level recovery event: the run rolled
	// every rank back and re-executes. A holds the attempt number that
	// is about to start, B the superstep the machine resumes from.
	KindRollback
	// KindHeartbeat is a control-plane liveness observation (instant,
	// flight-ring only — heartbeats run on transport goroutines, not
	// rank goroutines, so this kind and the ones after it never enter
	// the per-rank event slices). A holds the heartbeat sequence number,
	// B the gang epoch, and C the measured round-trip time in ns when
	// the event records the coordinator's echo (0 for the send itself:
	// C > 0 is what tells the two apart).
	KindHeartbeat
	// KindHeartbeatMiss is a heartbeat interval that passed without a
	// beat from the coordinator (instant, flight-ring only).
	KindHeartbeatMiss
	// KindWarmRestart is a crash declaration naming a peer the launcher
	// will replace while the recording rank rolls back in place
	// (instant, flight-ring only). A holds the crashed rank, B the gang
	// epoch that replaces the failed one.
	KindWarmRestart
)

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSync:
		return "sync"
	case KindExchange:
		return "exchange"
	case KindPair:
		return "pair"
	case KindCkptSave:
		return "checkpoint save"
	case KindCkptRestore:
		return "restore"
	case KindFault:
		return "fault"
	case KindRollback:
		return "rollback"
	case KindHeartbeat:
		return "heartbeat"
	case KindHeartbeatMiss:
		return "heartbeat miss"
	case KindWarmRestart:
		return "warm restart"
	}
	return "unknown"
}

// FaultCode identifies an injected fault in a KindFault event.
type FaultCode int64

const (
	FaultDelay FaultCode = iota + 1
	FaultStall
	FaultAbort
	FaultCrash
	// FaultSuspect marks a liveness crash declaration: the coordinator
	// stopped hearing a rank's heartbeats (or saw its control
	// connection drop without a leave) and fanned the crash out. B
	// holds the suspected rank.
	FaultSuspect
)

// String names the fault as it appears in exported traces.
func (f FaultCode) String() string {
	switch f {
	case FaultDelay:
		return "chaos delay"
	case FaultStall:
		return "chaos stall"
	case FaultAbort:
		return "chaos abort"
	case FaultCrash:
		return "chaos crash"
	case FaultSuspect:
		return "liveness suspect"
	}
	return "chaos fault"
}

// Event is one recorded observation. Times are nanoseconds since the
// Recorder's epoch (monotonic; the epoch is New's call time). Instant
// events have End == Start.
type Event struct {
	Kind       Kind
	Rank       int32 // recording rank; MachineRank for machine-level events
	Step       int32 // 0-based superstep index the event belongs to
	Start, End int64 // ns since the recorder epoch
	A, B, C, D int64 // kind-specific payload, see the Kind constants
}

// Dur returns the span length in nanoseconds.
func (e Event) Dur() int64 { return e.End - e.Start }

// MachineRank is the pseudo-rank of machine-level events (rollbacks):
// they belong to the run, not to any one process.
const MachineRank = -1

// Buf is one rank's append-only event buffer. A Buf is confined to the
// goroutine of the rank that owns it (exactly like a transport
// Endpoint); across recovery attempts the successive incarnations of a
// rank run strictly one after another, so single-writer appends remain
// safe. All methods are nil-receiver safe and do nothing when the Buf
// is nil — the disabled path of every instrumentation site.
type Buf struct {
	rank  int32
	epoch time.Time
	m     *Metrics
	// base is added to the step of transport-originated events (Pair,
	// Exchange, Fault): endpoints count supersteps locally from zero,
	// so after a recovery rollback the fresh endpoints of the resumed
	// attempt restart at round 0 while the machine is really at the
	// resume step. Core sets the base to the resume step when it
	// restores a rank (SetStepBase), keeping every event on the global
	// superstep axis. Core-originated events (Compute, SyncSpan,
	// CkptSave, CkptRestore) already carry global steps and bypass it.
	base   int32
	events []Event
	// ring is the rank's flight recorder: every event is also published
	// here (atomics only, fixed memory), so a postmortem dump can
	// recover the recent history of any rank at any moment — including
	// flight-only mode, where the unbounded events slice stays empty.
	ring   *Ring
	flight bool // flight-only: record to the ring, skip the events slice
}

// emit is the one path of a recorded event: the flight ring, the
// rank's event slice (full tracing only), and the metrics fold.
// Control-plane kinds — KindHeartbeat and after — arrive from transport
// goroutines, not the rank's own, so they skip the single-writer slice;
// the ring and the fold are atomics.
func (b *Buf) emit(ev Event) {
	b.ring.Record(ev)
	if !b.flight && ev.Kind < KindHeartbeat {
		b.events = append(b.events, ev)
	}
	b.m.observe(ev)
}

// RingSnapshot copies the rank's retained flight-ring events (in
// record order) plus the count of events ever recorded; the
// difference is how many the ring has overwritten. Safe from any
// goroutine, concurrently with a running rank.
func (b *Buf) RingSnapshot() ([]Event, uint64) {
	if b == nil {
		return nil, 0
	}
	return b.ring.Snapshot(), b.ring.Total()
}

// Rank returns the rank this buffer records for.
func (b *Buf) Rank() int { return int(b.rank) }

// Metrics returns the machine-wide counters this buffer feeds, or nil.
// Nil-safe, so transports holding a possibly-nil Buf can chain
// b.Metrics().Rank(i) without guarding.
func (b *Buf) Metrics() *Metrics {
	if b == nil {
		return nil
	}
	return b.m
}

// SetStepBase aligns transport-originated events with the machine's
// superstep axis: step is added to the endpoint-local step of every
// subsequent Pair, Exchange and Fault event. Core calls it with the
// resume step when restoring a rank from a snapshot, because a resumed
// attempt's fresh endpoints restart their superstep counters at zero.
func (b *Buf) SetStepBase(step int) {
	if b == nil {
		return
	}
	b.base = int32(step)
}

// Now returns nanoseconds since the recorder epoch. It returns 0 on a
// nil Buf; callers on the disabled path must not reach it anyway.
func (b *Buf) Now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// Compute records one superstep's local-computation span.
func (b *Buf) Compute(step int, start, end int64, units int) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindCompute, Rank: b.rank, Step: int32(step), Start: start, End: end, A: int64(units)})
}

// SyncSpan records one superstep's barrier span (arrive..release) with
// the packets sent and received in the superstep it ends. selfPkts is
// the portion of both counters the rank delivered to itself, recorded
// so Pair-event totals (inter-rank only) stay reconcilable. step is the
// machine's global superstep.
func (b *Buf) SyncSpan(step int, start, end int64, sentPkts, recvPkts, selfPkts int) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindSync, Rank: b.rank, Step: int32(step), Start: start, End: end, A: int64(sentPkts), B: int64(recvPkts), C: int64(selfPkts)})
}

// Exchange records a transport data-movement span nested in the
// superstep's KindSync span. step is endpoint-local (SetStepBase).
func (b *Buf) Exchange(step int, start, end int64) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindExchange, Rank: b.rank, Step: b.base + int32(step), Start: start, End: end})
}

// Pair records the handoff of one (src,dst) batch: bytes, frames and
// payload packet units shipped from this rank to dst in the given
// superstep. step is endpoint-local (SetStepBase).
func (b *Buf) Pair(step, dst int, at int64, bytes, frames, pkts int) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindPair, Rank: b.rank, Step: b.base + int32(step), Start: at, End: at, A: int64(dst), B: int64(bytes), C: int64(frames), D: int64(pkts)})
}

// CkptSave records a checkpoint capture span at a superstep boundary.
func (b *Buf) CkptSave(step int, start, end int64, bytes int) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindCkptSave, Rank: b.rank, Step: int32(step), Start: start, End: end, B: int64(bytes)})
}

// CkptRestore records a restore span on a rank resuming from the
// snapshot captured at the given superstep boundary.
func (b *Buf) CkptRestore(step int, start, end int64) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindCkptRestore, Rank: b.rank, Step: int32(step), Start: start, End: end})
}

// Fault records an injected chaos fault as an instant event. step is
// endpoint-local (SetStepBase).
func (b *Buf) Fault(step int, code FaultCode, at int64, aux int64) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindFault, Rank: b.rank, Step: b.base + int32(step), Start: at, End: at, A: int64(code), B: aux})
}

// control records ev, an instant control-plane observation, as this
// rank's and stamped now. Safe from any goroutine (see emit).
func (b *Buf) control(ev Event) {
	if b == nil {
		return
	}
	ev.Rank, ev.Start = b.rank, b.Now()
	ev.End = ev.Start
	b.emit(ev)
}

// Heartbeat records one liveness heartbeat sent on the control plane:
// seq is the beat's sequence number, epoch the gang epoch it was sent
// in. Safe from any goroutine, like the three recorders after it (the
// transport's heartbeat and control-read loops are not rank
// goroutines).
func (b *Buf) Heartbeat(seq, epoch int) {
	b.control(Event{Kind: KindHeartbeat, A: int64(seq), B: int64(epoch)})
}

// HeartbeatRTT records the control-plane round trip of heartbeat seq:
// the coordinator echoed the beat back and the member measured rttNs
// from send to echo.
func (b *Buf) HeartbeatRTT(seq int, rttNs int64) {
	b.control(Event{Kind: KindHeartbeat, A: int64(seq), C: rttNs})
}

// HeartbeatMiss records a heartbeat interval that passed without a
// beat from the coordinator.
func (b *Buf) HeartbeatMiss() { b.control(Event{Kind: KindHeartbeatMiss}) }

// WarmRestart records a surgical single-rank relaunch this process
// observed: a crash declaration naming peer, whom the launcher replaces
// at newEpoch while this rank rolls back in place.
func (b *Buf) WarmRestart(peer, newEpoch int) {
	b.control(Event{Kind: KindWarmRestart, A: int64(peer), B: int64(newEpoch)})
}

// Recorder owns the per-rank buffers and the machine-level event list
// of one logical run (which may span several recovery attempts — the
// buffers persist across attempts, so a recovered run's trace shows
// the crash, the rollback and the re-executed supersteps on one
// timeline).
type Recorder struct {
	epoch time.Time
	bufs  []*Buf
	m     *Metrics

	mu      sync.Mutex
	machine []Event
}

// New returns a Recorder for a p-rank machine. The epoch — time zero
// of every recorded timestamp — is the call time. Every rank also
// gets a flight ring (DefaultRingSize slots), so postmortem dumps
// work whether tracing is full or flight-only.
func New(p int) *Recorder {
	return newRecorder(p, false)
}

// NewFlight returns a flight-only Recorder: every rank records the
// last DefaultRingSize events into its fixed-size ring and nothing
// into the unbounded event slices, so memory stays constant however
// long the run. This is the recorder core arms automatically when
// postmortems are requested without -trace; Events() yields only
// machine-level events in this mode — dump the rings instead.
func NewFlight(p int) *Recorder {
	return newRecorder(p, true)
}

func newRecorder(p int, flight bool) *Recorder {
	r := &Recorder{epoch: time.Now(), m: newMetrics(p)}
	r.bufs = make([]*Buf, p)
	for i := range r.bufs {
		r.bufs[i] = &Buf{rank: int32(i), epoch: r.epoch, m: r.m, ring: NewRing(DefaultRingSize), flight: flight}
	}
	return r
}

// P returns the number of ranks the recorder was created for.
func (r *Recorder) P() int {
	if r == nil {
		return 0
	}
	return len(r.bufs)
}

// Rank returns rank i's buffer, or nil (the disabled path) when the
// recorder is nil or i is out of range.
func (r *Recorder) Rank(i int) *Buf {
	if r == nil || i < 0 || i >= len(r.bufs) {
		return nil
	}
	return r.bufs[i]
}

// Metrics returns the live atomic counters, safe to read concurrently
// with a running machine. Nil-safe.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.m
}

// Now returns nanoseconds since the recorder epoch.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Rollback records a machine-level recovery event: attempt is the
// attempt number about to start, resumeStep the superstep boundary the
// machine rolls back to (0 = scratch). Called between attempts, when
// no rank goroutine is running; the mutex makes it safe regardless.
func (r *Recorder) Rollback(attempt, resumeStep int) {
	if r == nil {
		return
	}
	now := r.Now()
	r.emitMachine(Event{Kind: KindRollback, Rank: MachineRank, Step: int32(resumeStep), Start: now, End: now, A: int64(attempt), B: int64(resumeStep)})
}

// emitMachine is emit for machine-level events: the machine list and
// the metrics fold (no rank owns them, so no ring).
func (r *Recorder) emitMachine(ev Event) {
	r.mu.Lock()
	r.machine = append(r.machine, ev)
	r.mu.Unlock()
	r.m.observe(ev)
}

// Events returns a copy of every recorded event — all ranks plus the
// machine-level list — sorted by start time (ties by rank, then by
// recording order). Call it only when the machine is quiescent (after
// core.Run returns); it is the input of the exporters.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var all []Event
	for _, b := range r.bufs {
		all = append(all, b.events...)
	}
	r.mu.Lock()
	all = append(all, r.machine...)
	r.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].Rank < all[j].Rank
	})
	return all
}
