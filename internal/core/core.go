// Package core implements the Green BSP library: a minimalist
// bulk-synchronous parallel programming interface with one communication
// operation and one synchronization operation.
//
// The library follows the paper's Appendix A:
//
//   - (*Proc).Sync is bspSynch: "When a process calls this function, it
//     is stopped until all other processes have called it. After a
//     process returns from a bspSynch() call, all packets that were sent
//     to it in the previous superstep can be assumed to be available."
//   - (*Proc).SendPkt is bspSendPkt: sends a fixed-size 16-byte packet
//     to another process.
//   - (*Proc).GetPkt is bspGetPkt: returns a packet sent to this process
//     in the previous superstep, in arbitrary order, with ok == false
//     when no packets remain (the paper's NULL).
//
// Auxiliary functions (process id, process count, unreceived-packet
// count) are provided as in the paper, and the arbitrary-length message
// extension the paper describes in footnote 2 ("we are currently changing
// our system to allow the programmer to send packets of any arbitrary
// length") is available as (*Proc).Send / (*Proc).Recv.
//
// A program is a function executed by P processes over a
// transport.Transport; Run launches the processes and returns per-
// superstep statistics (work depth, h-relation sizes, superstep count)
// that feed the BSP cost model in internal/cost.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// ErrTimeout is wrapped by the error Run returns when Config.SyncTimeout
// elapses with no process completing a superstep: a peer is stalled or
// the barrier is wedged. The error text names the stuck rank(s) and each
// rank's progress.
var ErrTimeout = errors.New("bsp: superstep timed out")

// PktSize is the fixed packet size used throughout the paper: "All
// results in this paper were obtained with a fixed packet size of 16
// bytes."
const PktSize = 16

// Pkt is a fixed-size Green BSP packet. The data can be in any format; it
// is up to the programmer to provide sufficient labeling information.
type Pkt [PktSize]byte

// Config describes a BSP machine instance.
type Config struct {
	// P is the number of BSP processes.
	P int
	// Transport selects the library implementation; nil means the
	// shared-memory transport (the paper's B.1).
	Transport transport.Transport
	// Group, when non-nil, carries the job identity (job id, gang
	// epoch) to transports that implement transport.GroupTransport —
	// the cluster transport fences handshakes on it. Nil runs an
	// anonymous job. RunRecoverable bumps the epoch on every retry so
	// a relaunched gang is fenced from stragglers of the crashed one.
	Group *transport.GroupOptions
	// SyncTimeout, when positive, bounds how long the machine may go
	// without any process completing a barrier phase. If it elapses, a
	// watchdog aborts the run and Run returns an error wrapping
	// ErrTimeout that names the stuck rank(s) and each rank's
	// superstep progress, instead of hanging forever on a stalled
	// peer. It must exceed the longest legitimate superstep (compute
	// plus exchange). The watchdog unblocks the concurrent transports
	// (shm, xchg, tcp) via Abort; on sim a process stalled in its own
	// code must still return before Run can.
	SyncTimeout time.Duration
	// Checkpoint, when non-nil with a Dir, arms superstep snapshot
	// capture and recovery for RunRecoverable (plain Run ignores it:
	// capture needs the Save hook only RunRecoverable accepts).
	Checkpoint *CheckpointConfig
	// Trace, when non-nil, records per-superstep observability events:
	// each rank's compute and barrier spans, per-(src,dst) exchange
	// batches (on transports that implement transport.TraceSetter),
	// checkpoint save/restore spans, chaos faults and recovery
	// rollbacks. The recorder persists across RunRecoverable attempts,
	// so a recovered run's trace shows the crash, the rollback and the
	// re-executed supersteps on one timeline. Nil disables tracing;
	// the disabled path is a nil check only (see the alloc gate).
	Trace *trace.Recorder
	// Postmortem, when non-nil with a Dir, arms crash forensics: a run
	// that fails with a crash, timeout or abort dumps every hosted
	// rank's flight-recorder ring, a metrics snapshot and the
	// process's goroutine stacks into the bundle directory, and on
	// cluster transports the coordinator's dump broadcast makes
	// survivors dump too. If Trace is nil, runMachine arms a
	// flight-only recorder (trace.NewFlight) automatically, so
	// postmortems work — at fixed memory cost — on runs launched
	// without -trace. Share one pointer across a job's config copies:
	// it deduplicates dumps per (rank, epoch).
	Postmortem *PostmortemConfig
}

// Proc is one BSP process's handle to the library. A Proc is confined to
// the goroutine running the process function; it is not safe for
// concurrent use.
type Proc struct {
	id int
	p  int
	ep transport.Endpoint

	inbox *transport.Inbox

	steps    []stepRecord
	sentPkts int
	selfPkts int // portion of sentPkts addressed to this rank itself
	units    int
	segStart time.Time

	// step counts completed supersteps (Sync returns) over the whole
	// logical run: a process restored from a checkpoint starts at the
	// snapshot's superstep, not at 0. lastCap is the step of the last
	// captured snapshot; ck, when non-nil, persists snapshots at
	// boundaries the Save hook accepts.
	step    int
	lastCap int
	ck      *capturer

	// tr is this rank's trace buffer; nil when tracing is disabled
	// (every use is guarded by a nil check — the whole cost of the
	// disabled path).
	tr *trace.Buf

	// phase counts barrier phases for the watchdog: +1 entering the
	// transport Sync (waiting), +1 on its successful return
	// (computing again). Even = computing superstep phase/2+1, odd =
	// waiting in barrier (phase+1)/2. Nil when no SyncTimeout is set.
	phase *atomic.Int64
}

// stepRecord captures one process's contribution to one superstep.
type stepRecord struct {
	work  time.Duration
	units int // abstract work units reported via AddWork
	sent  int // packet units sent during the superstep
	recv  int // packet units delivered at the superstep's end
}

// ID returns this process's rank in [0, P).
func (c *Proc) ID() int { return c.id }

// P returns the number of BSP processes.
func (c *Proc) P() int { return c.p }

// Step returns the number of supersteps completed so far in the
// logical run. A process restored from a checkpoint (RunRecoverable)
// starts with Step equal to the snapshot's superstep; a fresh process
// starts at 0 — which is how a recoverable program tells a scratch
// start from a resume.
func (c *Proc) Step() int { return c.step }

// pktUnits converts a message length to packet units, the currency of
// the h-relation in the cost model: one fixed-size packet per PktSize
// bytes, minimum one.
func pktUnits(n int) int {
	if n <= PktSize {
		return 1
	}
	return (n + PktSize - 1) / PktSize
}

// SendPkt sends a fixed-size packet to process dst. The packet is
// delivered at the beginning of the next superstep. The packet bytes
// are combined (copied) into the transport's per-destination batch, so
// the caller may reuse pkt immediately; no per-packet allocation
// occurs.
func (c *Proc) SendPkt(dst int, pkt *Pkt) {
	c.ep.Send(dst, pkt[:])
	c.sentPkts++
	if dst == c.id {
		c.selfPkts++
	}
}

// GetPkt returns a packet that was sent to this process in the previous
// superstep. Packets are returned in arbitrary order; ok is false when
// no packets remain. The packet is copied out of the transport buffer,
// so it stays valid indefinitely. GetPkt panics if the next pending
// message was not sent with SendPkt (mixing SendPkt/Send streams within
// one superstep requires draining with Recv, which accepts both).
func (c *Proc) GetPkt() (pkt Pkt, ok bool) {
	msg, ok := c.inbox.Next()
	if !ok {
		return Pkt{}, false
	}
	if len(msg) != PktSize {
		panic(fmt.Sprintf("bsp: GetPkt on a %d-byte message; use Recv for variable-length messages", len(msg)))
	}
	copy(pkt[:], msg)
	return pkt, true
}

// Send sends an arbitrary-length message to process dst (the paper's
// variable-length extension). The message is combined (copied) into the
// transport's per-destination batch; the caller may reuse b
// immediately. For cost accounting the message counts as
// ceil(len(b)/PktSize) packets (minimum one).
func (c *Proc) Send(dst int, b []byte) {
	c.ep.Send(dst, b)
	c.sentPkts += pktUnits(len(b))
	if dst == c.id {
		c.selfPkts += pktUnits(len(b))
	}
}

// Recv returns the next message delivered to this process in the
// previous superstep, or ok == false when none remain. The returned
// slice is a zero-copy view into the transport's receive buffer: it is
// valid until this process's next Sync (which recycles the buffers) and
// must not be appended to. Callers that retain a message across a Sync
// must copy it first.
func (c *Proc) Recv() ([]byte, bool) {
	return c.inbox.Next()
}

// Pending returns the number of unreceived messages from the previous
// superstep (the paper's auxiliary unreceived-packet query). Both
// fixed-size packets and variable-length messages count as one each.
func (c *Proc) Pending() int { return c.inbox.Pending() }

// AddWork reports n abstract units of local computation for the current
// superstep (cell updates, interactions, relaxations, flops — each
// application picks its natural unit). Work units are a
// machine-independent work measure: wall-clock work depths measured on
// this host mix real computation with message-preparation overhead in a
// ratio very different from the paper's 1996 machines, whereas unit
// counts reproduce the paper's compute-dominated balance once scaled by
// a calibrated seconds-per-unit (see internal/harness).
func (c *Proc) AddWork(n int) { c.units += n }

// Sync ends the current superstep: it blocks until all processes have
// called Sync, after which all packets sent to this process during the
// superstep just ended are available via GetPkt/Recv. Messages not yet
// received from the previous superstep are discarded, as in the paper's
// alternating-buffer implementations.
func (c *Proc) Sync() {
	work := time.Since(c.segStart)
	var arrive int64
	if c.tr != nil {
		arrive = c.tr.Now()
	}
	if c.phase != nil {
		c.phase.Add(1)
	}
	inbox, err := c.ep.Sync()
	if err != nil {
		panic(syncFailure{err})
	}
	if c.phase != nil {
		c.phase.Add(1)
	}
	recv := 0
	inbox.EachFrameLen(func(n int) { recv += pktUnits(n) })
	if c.tr != nil {
		// The compute span ends at barrier arrival; the sync span covers
		// exchange plus barrier wait until release. Straggler attribution
		// falls out of comparing arrive times across ranks.
		release := c.tr.Now()
		c.tr.Compute(c.step, arrive-int64(work), arrive, c.units)
		c.tr.SyncSpan(c.step, arrive, release, c.sentPkts, recv, c.selfPkts)
	}
	c.steps = append(c.steps, stepRecord{work: work, units: c.units, sent: c.sentPkts, recv: recv})
	c.sentPkts = 0
	c.selfPkts = 0
	c.units = 0
	c.inbox = inbox
	c.step++
	if c.ck != nil {
		// The barrier just completed: every rank's superstep-t messages
		// are delivered and nothing of superstep t+1 exists — a globally
		// consistent cut, the only point where a snapshot is restartable.
		c.ck.capture(c)
	}
	c.segStart = time.Now()
}

// finish records the trailing computation segment after the last Sync.
func (c *Proc) finish() {
	work := time.Since(c.segStart)
	if c.tr != nil {
		now := c.tr.Now()
		c.tr.Compute(c.step, now-int64(work), now, c.units)
	}
	c.steps = append(c.steps, stepRecord{work: work, units: c.units, sent: c.sentPkts})
}

// syncFailure wraps a transport error raised inside Sync so Run can tell
// infrastructure failures from program panics.
type syncFailure struct{ err error }

// Run executes fn as P BSP processes and returns the merged per-superstep
// statistics. Run returns an error if any process panics or if the
// transport fails; the first failure aborts the whole machine.
//
// Every process must execute the same number of supersteps (call Sync the
// same number of times); diverging superstep counts are reported as
// errors by the concurrent transports.
//
// Run is RunRecoverable without checkpoint hooks — the one run entry:
// with cfg.Checkpoint armed a recoverable failure re-executes fn from
// superstep 0, so fn must build its state from its inputs, not from
// what an earlier attempt left behind.
func Run(cfg Config, fn func(*Proc)) (*Stats, error) {
	return RunRecoverable(cfg, fn, Hooks{})
}

// runMachine is one machine execution: Run with optional checkpoint
// capture (rs.cap) and snapshot restore (rs.resume). RunRecoverable
// wraps it in the rollback/retry loop.
func runMachine(cfg Config, fn func(*Proc), hooks Hooks, rs *runState) (*Stats, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("bsp: config.P must be >= 1, got %d", cfg.P)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.ShmTransport{}
	}
	if cfg.Postmortem.armed() && cfg.Trace == nil {
		// Always-on forensics without tracing: a flight-only recorder
		// keeps the last events of every rank in fixed memory, ready to
		// dump, while the unbounded event slices stay empty. cfg is a
		// local copy, so each recovery attempt gets a fresh ring.
		cfg.Trace = trace.NewFlight(cfg.P)
	}
	var gopts transport.GroupOptions
	if cfg.Group != nil {
		gopts = *cfg.Group
	}
	eps, err := transport.OpenWithOptions(tr, cfg.P, gopts)
	if err != nil {
		return nil, err
	}
	// A transport may host only a subset of the machine's ranks in this
	// process (a cluster member hosts exactly one); each returned
	// endpoint identifies its rank via ID(). The in-process transports
	// return all cfg.P ranks.
	if len(eps) < 1 || len(eps) > cfg.P {
		return nil, fmt.Errorf("bsp: transport %s opened %d endpoints for p=%d", tr.Name(), len(eps), cfg.P)
	}
	ranks := make([]int, len(eps))
	for s, ep := range eps {
		if id := ep.ID(); id < 0 || id >= cfg.P {
			return nil, fmt.Errorf("bsp: transport %s endpoint rank %d out of range [0,%d)", tr.Name(), id, cfg.P)
		}
		ranks[s] = ep.ID()
	}
	if rs != nil && rs.cap != nil {
		rs.cap.hosted = len(eps)
	}
	procs := make([]*Proc, cfg.P)
	errs := make([]error, len(eps))
	phases := make([]atomic.Int64, len(eps))
	finished := make([]atomic.Bool, len(eps))

	// Superstep watchdog: if no locally-hosted process completes a
	// barrier phase for SyncTimeout, abort the machine so the stalled
	// barrier unwinds as errors instead of hanging, and record an
	// ErrTimeout naming the laggard(s).
	var timeoutErr error
	var watchStop, watchDone chan struct{}
	if cfg.SyncTimeout > 0 {
		watchStop, watchDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watchDone)
			timeoutErr = watchProgress(eps, ranks, phases, finished, cfg.SyncTimeout, watchStop)
		}()
	}

	var wg sync.WaitGroup
	for s := 0; s < len(eps); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer finished[s].Store(true)
			ep := eps[s]
			i := ranks[s]
			// One fixed pprof label per rank, set before any restore so
			// its CPU is attributed too; goroutines the rank starts
			// inherit it. The phase is on the stack, the superstep in
			// the trace.
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("bsp_rank", strconv.Itoa(i))))
			defer ep.Close()
			defer func() {
				if r := recover(); r != nil {
					if sf, ok := r.(syncFailure); ok {
						errs[s] = fmt.Errorf("bsp: process %d: %w", i, sf.err)
					} else {
						errs[s] = fmt.Errorf("bsp: process %d panicked: %v\n%s", i, r, debug.Stack())
					}
					ep.Abort()
				}
			}()
			if cfg.Trace != nil {
				// Endpoints that implement transport.TraceSetter feed the
				// per-rank buffer with exchange and fault events; set it
				// before Begin so no event precedes the buffer.
				if ts, ok := ep.(transport.TraceSetter); ok {
					ts.SetTrace(cfg.Trace.Rank(i))
				}
			}
			if cfg.Postmortem.armed() {
				// Membership planes that can request forensics (the
				// cluster coordinator's dump broadcast) get the hook;
				// the (rank, epoch) dedup absorbs the overlap with the
				// local failure-path dump below.
				if ds, ok := ep.(transport.DumpSetter); ok {
					rec := cfg.Trace
					ds.SetDump(func(reason string) {
						cfg.Postmortem.dump(rec, i, gopts.Epoch, reason)
					})
				}
			}
			ep.Begin()
			c := &Proc{id: i, p: cfg.P, ep: ep, segStart: time.Now()}
			if cfg.Trace != nil {
				c.tr = cfg.Trace.Rank(i)
				// A fresh attempt's endpoints count supersteps from zero
				// again; reset the realignment base (the resume block
				// below raises it when the attempt starts from a
				// snapshot).
				c.tr.SetStepBase(0)
			}
			if cfg.SyncTimeout > 0 {
				c.phase = &phases[s]
			}
			if rs != nil {
				c.ck = rs.cap
				if rs.resume != nil {
					snap := rs.resume[i]
					var restoreStart int64
					if c.tr != nil {
						restoreStart = c.tr.Now()
					}
					c.step, c.lastCap = snap.Step, snap.Step
					// The resumed attempt's fresh endpoints count
					// supersteps from zero; realign their Pair/Exchange/
					// Fault events with the machine's superstep axis.
					c.tr.SetStepBase(snap.Step)
					inbox, err := transport.NewInbox(snap.Batches)
					if err != nil {
						panic(syncFailure{fmt.Errorf("restored inbox: %w", err)})
					}
					c.inbox = inbox
					if hooks.Restore != nil {
						if err := hooks.Restore(c, snap.Step, snap.User); err != nil {
							panic(syncFailure{fmt.Errorf("restore hook: %w", err)})
						}
					}
					if c.tr != nil {
						c.tr.CkptRestore(snap.Step, restoreStart, c.tr.Now())
					}
				}
			}
			procs[i] = c
			fn(c)
			c.finish()
		}()
	}
	wg.Wait()
	if rs != nil && rs.cap != nil {
		// No snapshot is loaded and no stats are reported while a
		// record is still on its way to durability.
		rs.cap.drain()
	}
	if watchDone != nil {
		close(watchStop)
		<-watchDone
	}
	// Error selection: a process's own failure (program panic or
	// transport infrastructure error) outranks the watchdog timeout,
	// which outranks the secondary ErrAborted failures either induces
	// in the peers — an infrastructure error must never be shadowed by
	// the aborts it causes.
	var procErr, abortErr error
	for _, e := range errs {
		switch {
		case e == nil:
		case isAbort(e):
			if abortErr == nil {
				abortErr = e
			}
		case procErr == nil:
			procErr = e
		}
	}
	var finalErr error
	switch {
	case procErr != nil:
		finalErr = procErr
	case timeoutErr != nil:
		finalErr = timeoutErr
	case abortErr != nil:
		finalErr = abortErr
	}
	if finalErr != nil {
		if cfg.Postmortem.armed() && dumpWorthy(finalErr) {
			// The machine is quiescent (wg.Wait above), so each hosted
			// rank's ring shows its final moments; dump them all.
			for s := range eps {
				cfg.Postmortem.dump(cfg.Trace, ranks[s], gopts.Epoch, finalErr.Error())
			}
		}
		return nil, finalErr
	}
	st, err := mergeStats(cfg.P, procs)
	if err == nil && cfg.Trace != nil {
		st.Live = liveStatsFrom(cfg.Trace.Metrics(), cfg.P)
	}
	return st, err
}

func isAbort(err error) bool { return errors.Is(err, transport.ErrAborted) }

// watchProgress polls the per-rank barrier-phase counters until the run
// ends (stop closes or every rank finishes) or no counter has moved for
// d, in which case it aborts every endpoint and returns the ErrTimeout
// describing who is stuck where. It observes only the ranks hosted in
// this process (ranks[s] labels slot s); in a cluster, a remote
// laggard surfaces through this rank's own barrier making no progress.
// Aborting from outside the process goroutines is safe on every
// transport (their abort flags are atomic); it unblocks the concurrent
// transports' barriers so wg.Wait can finish.
func watchProgress(eps []transport.Endpoint, ranks []int, phases []atomic.Int64, finished []atomic.Bool, d time.Duration, stop <-chan struct{}) error {
	tick := d / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	snapshot := func() ([]int64, bool) {
		s := make([]int64, len(phases))
		allDone := true
		for i := range phases {
			s[i] = phases[i].Load() << 1
			if finished[i].Load() {
				s[i]++
			} else {
				allDone = false
			}
		}
		return s, allDone
	}
	equal := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	last, _ := snapshot()
	lastChange := time.Now()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
		}
		cur, allDone := snapshot()
		if allDone {
			return nil
		}
		if !equal(cur, last) {
			last, lastChange = cur, time.Now()
			continue
		}
		if time.Since(lastChange) < d {
			continue
		}
		err := timeoutError(ranks, phases, finished, d)
		for _, ep := range eps {
			ep.Abort()
		}
		return err
	}
}

// TimeoutError is the watchdog's report: it wraps ErrTimeout (so
// errors.Is classification keeps working), names the stuck rank(s) in
// its one-line Error, and carries every rank's barrier position for
// callers — cmd/bsprun prints Detail so an operator sees exactly who
// was where when the machine wedged.
type TimeoutError struct {
	// Wait is how long the machine made no barrier progress.
	Wait time.Duration
	// Stuck lists the unfinished rank(s) with the least barrier
	// progress: a rank lagging its peers, or every rank if the whole
	// machine wedged together.
	Stuck []int
	// Ranks has one human-readable progress line per rank.
	Ranks []string
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%v: no barrier progress for %v; stuck rank(s) %v; %s",
		ErrTimeout, e.Wait, e.Stuck, strings.Join(e.Ranks, ", "))
}

func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Detail returns the per-rank progress report, one line per rank.
func (e *TimeoutError) Detail() string { return strings.Join(e.Ranks, "\n") }

// timeoutError builds the TimeoutError: the stuck rank(s) are the
// unfinished locally-hosted ranks with the least barrier progress (a
// rank still computing while its peers wait in the next barrier, or
// the whole machine if all are wedged together), and every local
// rank's position is listed (ranks[s] labels slot s).
func timeoutError(ranks []int, phases []atomic.Int64, finished []atomic.Bool, d time.Duration) error {
	minPhase := int64(-1)
	for s := range phases {
		if finished[s].Load() {
			continue
		}
		if ph := phases[s].Load(); minPhase < 0 || ph < minPhase {
			minPhase = ph
		}
	}
	te := &TimeoutError{Wait: d, Ranks: make([]string, len(phases))}
	for s := range phases {
		ph := phases[s].Load()
		done := finished[s].Load()
		step := ph/2 + 1
		switch {
		case done:
			te.Ranks[s] = fmt.Sprintf("rank %d finished after %d supersteps", ranks[s], ph/2)
		case ph%2 == 1:
			te.Ranks[s] = fmt.Sprintf("rank %d waiting in barrier %d", ranks[s], step)
		default:
			te.Ranks[s] = fmt.Sprintf("rank %d computing superstep %d", ranks[s], step)
		}
		if !done && ph == minPhase {
			te.Stuck = append(te.Stuck, ranks[s])
		}
	}
	return te
}
