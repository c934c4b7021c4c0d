package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ErrTransient marks an injected (or environmental) fault that a
// transport is allowed to absorb by retrying. The TCP transport retries
// reads, writes and connects whose errors match errors.Is(err,
// ErrTransient) or are net.Error timeouts; every other error is treated
// as fatal for the superstep.
var ErrTransient = fmt.Errorf("transport: transient fault")

// ErrCrashed marks an injected hard crash: the faulted rank's endpoint
// was killed mid-superstep (aborted and closed underneath the still-
// running process), unlike the cooperative abort, which only fails the
// rank's Sync and lets core unwind it. Recovery machinery
// (core.RunRecoverable) treats a crash as retryable.
var ErrCrashed = errors.New("transport: rank crashed (injected fault)")

// ErrInjectedAbort marks the chaos abort fault on the faulted rank
// itself. It is deliberately a distinct sentinel from ErrAborted: the
// injected abort is the machine's primary failure, and wrapping
// ErrAborted would demote it behind the secondary peer errors it
// induces in core's error selection. Callers classifying failures
// (exit codes, recovery) should treat it alongside ErrAborted.
var ErrInjectedAbort = errors.New("transport: injected abort")

// FaultPlan describes the deterministic fault schedule of a
// ChaosTransport. The zero value injects nothing.
//
// All fault decisions are drawn from rand streams seeded with
// Seed⊕rank (endpoint faults) or Seed⊕(rank,peer) (connection faults),
// so a plan replays the same decision sequence on every run with the
// same seed: fault k of rank r is identical across runs, independent of
// goroutine scheduling. Only the wall-clock interleaving with other
// ranks varies.
type FaultPlan struct {
	// Seed roots every per-rank and per-connection random stream.
	Seed int64

	// DelayRate is the per-Send probability of sleeping before the
	// message is queued (a slow link); the delay is uniform in
	// (0, MaxDelay].
	DelayRate float64
	MaxDelay  time.Duration

	// StallRate is the per-Sync probability that the endpoint sleeps
	// for Stall before returning from Sync — the slow-peer fault:
	// the rank is late reaching its next barrier while every other
	// rank waits. A Stall longer than core's Config.SyncTimeout turns
	// into a clean ErrTimeout naming the stalled rank.
	StallRate float64
	Stall     time.Duration

	// ConnErrRate is the per-Read/Write-call probability that a TCP
	// connection returns a transient error instead of performing I/O.
	// Only effective when the wrapped transport is TCPTransport; the
	// TCP retry/backoff path must absorb these.
	ConnErrRate float64

	// AbortRank/AbortStep force rank AbortRank to abort the machine in
	// superstep AbortStep (1-based). AbortStep == 0 disables.
	AbortRank int
	AbortStep int

	// CrashRank/CrashStep hard-kill rank CrashRank's endpoint in
	// superstep CrashStep (1-based): the endpoint is aborted AND closed
	// mid-superstep, before the barrier, and the rank's Sync fails with
	// an error wrapping ErrCrashed. CrashStep == 0 disables. With a
	// transport built by NewChaosTransport the crash fires once per
	// transport value (so a recovered re-run proceeds fault-free); a
	// ChaosTransport composite literal re-fires on every Open,
	// modelling a persistent fault.
	CrashRank int
	CrashStep int

	// Ranks restricts delay/stall faults to the listed ranks; nil
	// means every rank.
	Ranks []int

	// FromStep/ToStep bound the supersteps (1-based, inclusive) in
	// which delay/stall faults fire; 0 means unbounded on that side.
	FromStep int
	ToStep   int
}

// DefaultFaultPlan returns a mild always-on plan used by
// transport.New("chaos:<base>"): occasional sub-millisecond delays and
// stalls plus sparse transient connection faults on the TCP path.
func DefaultFaultPlan() FaultPlan {
	return FaultPlan{
		Seed:        1,
		DelayRate:   0.05,
		MaxDelay:    time.Millisecond,
		StallRate:   0.02,
		Stall:       2 * time.Millisecond,
		ConnErrRate: 0.05,
	}
}

// targets reports whether delay/stall faults may fire for rank.
func (pl FaultPlan) targets(rank int) bool {
	if len(pl.Ranks) == 0 {
		return true
	}
	for _, r := range pl.Ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// inWindow reports whether delay/stall faults may fire in the 1-based
// superstep step.
func (pl FaultPlan) inWindow(step int) bool {
	if pl.FromStep > 0 && step < pl.FromStep {
		return false
	}
	if pl.ToStep > 0 && step > pl.ToStep {
		return false
	}
	return true
}

// ParseFaultPlan parses a comma-separated key=value fault-plan spec,
// e.g. "seed=42,delay=0.1,maxdelay=2ms,stall=0.05,stallfor=20ms,
// connerr=0.02,abort=1@3,ranks=0+2,steps=2-5". Unknown keys are
// errors. An empty spec returns DefaultFaultPlan.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	pl := DefaultFaultPlan()
	if strings.TrimSpace(spec) == "" {
		return pl, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return pl, fmt.Errorf("chaos: malformed plan entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			pl.Seed, err = strconv.ParseInt(v, 10, 64)
		case "delay":
			pl.DelayRate, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			pl.MaxDelay, err = time.ParseDuration(v)
		case "stall":
			pl.StallRate, err = strconv.ParseFloat(v, 64)
		case "stallfor":
			pl.Stall, err = time.ParseDuration(v)
		case "connerr":
			pl.ConnErrRate, err = strconv.ParseFloat(v, 64)
		case "abort":
			r, s, ok := strings.Cut(v, "@")
			if !ok {
				return pl, fmt.Errorf("chaos: abort wants rank@step, got %q", v)
			}
			if pl.AbortRank, err = strconv.Atoi(r); err == nil {
				pl.AbortStep, err = strconv.Atoi(s)
			}
		case "crash":
			r, s, ok := strings.Cut(v, ":")
			if !ok {
				return pl, fmt.Errorf("chaos: crash wants rank:step, got %q", v)
			}
			if pl.CrashRank, err = strconv.Atoi(r); err == nil {
				pl.CrashStep, err = strconv.Atoi(s)
			}
		case "ranks":
			pl.Ranks = nil
			for _, r := range strings.Split(v, "+") {
				n, e := strconv.Atoi(r)
				if e != nil {
					return pl, fmt.Errorf("chaos: bad rank %q in %q", r, kv)
				}
				pl.Ranks = append(pl.Ranks, n)
			}
		case "steps":
			a, b, ok := strings.Cut(v, "-")
			if !ok {
				return pl, fmt.Errorf("chaos: steps wants from-to, got %q", v)
			}
			if pl.FromStep, err = strconv.Atoi(a); err == nil {
				pl.ToStep, err = strconv.Atoi(b)
			}
		default:
			return pl, fmt.Errorf("chaos: unknown plan key %q", k)
		}
		if err != nil {
			return pl, fmt.Errorf("chaos: bad value in %q: %w", kv, err)
		}
	}
	return pl, nil
}

// String renders the plan as a ParseFaultPlan spec. The round trip
// ParseFaultPlan(pl.String()) == pl holds for every plan ParseFaultPlan
// can produce, so the rendered plan in a failure log is sufficient to
// reproduce the faulted run. The scalar keys are always emitted —
// ParseFaultPlan starts from DefaultFaultPlan, whose defaults are
// nonzero, so omitting a zero field would not round-trip.
func (pl FaultPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", pl.Seed)
	fmt.Fprintf(&b, ",delay=%s", strconv.FormatFloat(pl.DelayRate, 'g', -1, 64))
	fmt.Fprintf(&b, ",maxdelay=%s", pl.MaxDelay)
	fmt.Fprintf(&b, ",stall=%s", strconv.FormatFloat(pl.StallRate, 'g', -1, 64))
	fmt.Fprintf(&b, ",stallfor=%s", pl.Stall)
	fmt.Fprintf(&b, ",connerr=%s", strconv.FormatFloat(pl.ConnErrRate, 'g', -1, 64))
	if pl.AbortStep != 0 || pl.AbortRank != 0 {
		fmt.Fprintf(&b, ",abort=%d@%d", pl.AbortRank, pl.AbortStep)
	}
	if pl.CrashStep != 0 || pl.CrashRank != 0 {
		fmt.Fprintf(&b, ",crash=%d:%d", pl.CrashRank, pl.CrashStep)
	}
	if len(pl.Ranks) > 0 {
		b.WriteString(",ranks=")
		for i, r := range pl.Ranks {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.Itoa(r))
		}
	}
	if pl.FromStep != 0 || pl.ToStep != 0 {
		fmt.Fprintf(&b, ",steps=%d-%d", pl.FromStep, pl.ToStep)
	}
	return b.String()
}

// ChaosTransport decorates any Transport with seeded, deterministic
// fault injection driven by a FaultPlan: per-message delivery delays,
// Sync stalls (slow peers), transient connection errors on the TCP
// path, forced mid-superstep aborts, and hard endpoint crashes
// (CrashRank/CrashStep; see NewChaosTransport for the one-shot
// semantics recovery relies on). It exists so the delivery
// contract and the timeout/abort machinery can be exercised under
// adverse schedules that the clean transports never produce.
//
// Faults are reproducible by seed (see FaultPlan); the decorator never
// drops, duplicates, corrupts or reorders messages beyond what the
// wrapped transport's contract already allows, so every conformance
// property that holds for the base transport must hold chaos-wrapped.
type ChaosTransport struct {
	Base Transport
	Plan FaultPlan

	// shared, when non-nil (NewChaosTransport), carries crash state
	// across Opens of the same transport value so an armed crash fires
	// exactly once: the fault is a transient event in the machine's
	// history, and a recovered re-run of the same transport proceeds
	// fault-free. A composite-literal ChaosTransport (nil shared)
	// re-fires the crash on every Open — a persistent fault.
	shared *chaosShared
}

type chaosShared struct {
	crashFired atomic.Bool
}

// NewChaosTransport returns a ChaosTransport whose armed crash fault
// (Plan.CrashStep > 0) fires on the first Open only; subsequent Opens —
// in particular the re-execution RunRecoverable performs after
// restoring a checkpoint — run fault-free, like a machine that was
// power-cycled after a transient hardware fault.
func NewChaosTransport(base Transport, plan FaultPlan) ChaosTransport {
	return ChaosTransport{Base: base, Plan: plan, shared: &chaosShared{}}
}

// crashArmed reports whether the crash fault should fire in this run,
// consuming the one-shot state when present.
func (t ChaosTransport) crashArmed() bool {
	if t.Plan.CrashStep <= 0 {
		return false
	}
	if t.shared == nil {
		return true
	}
	return t.shared.crashFired.CompareAndSwap(false, true)
}

// Name implements Transport.
func (t ChaosTransport) Name() string { return "chaos:" + t.Base.Name() }

// Open implements Transport.
func (t ChaosTransport) Open(p int) ([]Endpoint, error) {
	return t.open(p, nil)
}

// OpenGroup implements GroupTransport when the base transport does,
// threading the job identity through the fault decorator.
func (t ChaosTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	return t.open(p, func(base Transport) ([]Endpoint, error) {
		return OpenWithOptions(base, p, opts)
	})
}

func (t ChaosTransport) open(p int, openBase func(Transport) ([]Endpoint, error)) ([]Endpoint, error) {
	base := t.Base
	if t.Plan.ConnErrRate > 0 {
		// Socket-backed bases get the connection fault decorator too.
		switch bt := base.(type) {
		case TCPTransport:
			bt.wrapConn = chaosWrapConn(t.Plan)
			base = bt
		case ClusterTransport:
			bt.wrapConn = chaosWrapConn(t.Plan)
			base = bt
		}
	}
	var eps []Endpoint
	var err error
	if openBase != nil {
		eps, err = openBase(base)
	} else {
		eps, err = base.Open(p)
	}
	if err != nil {
		return nil, err
	}
	crash := t.crashArmed()
	wrapped := make([]Endpoint, p)
	for i, ep := range eps {
		wrapped[i] = newChaosEndpoint(ep, t.Plan, crash && i == t.Plan.CrashRank)
	}
	return wrapped, nil
}

// NewChaosEndpoint wraps a single endpoint in a fault plan — the
// per-process entry point used by cluster children, where each process
// owns one rank and ChaosTransport (which wraps whole in-process
// machines) cannot apply. armCrash arms the plan's one-shot crash fault
// in this endpoint's process; the caller (the launcher relaunching a
// recovered generation) is responsible for not re-arming it. The rng
// seeding matches ChaosTransport.Open, so a cluster rank draws the same
// fault decision stream as the same rank in-process.
func NewChaosEndpoint(ep Endpoint, plan FaultPlan, armCrash bool) Endpoint {
	return newChaosEndpoint(ep, plan, armCrash && plan.CrashStep > 0 && ep.ID() == plan.CrashRank)
}

func newChaosEndpoint(ep Endpoint, plan FaultPlan, crash bool) *chaosEndpoint {
	return &chaosEndpoint{
		Endpoint: ep,
		plan:     plan,
		crash:    crash,
		rng:      rand.New(rand.NewSource(plan.Seed ^ int64(ep.ID()+1)*2654435761)),
	}
}

// chaosEndpoint injects the endpoint-level faults. It is confined to
// its owner goroutine like every Endpoint, so the rng needs no lock and
// the decision stream depends only on the seed and the call sequence.
type chaosEndpoint struct {
	Endpoint
	plan  FaultPlan
	rng   *rand.Rand
	step  int  // 1-based superstep currently executing
	crash bool // this rank's endpoint is armed to crash at plan.CrashStep
	dead  bool // the crash fired: the base endpoint is already closed
	buf   *trace.Buf
}

// SetTrace implements TraceSetter: the decorator records its injected
// faults and forwards the buffer to the wrapped endpoint so the base
// transport's own events (per-pair batches, exchange spans) still flow.
func (e *chaosEndpoint) SetTrace(b *trace.Buf) {
	e.buf = b
	if ts, ok := e.Endpoint.(TraceSetter); ok {
		ts.SetTrace(b)
	}
}

// SetDump implements DumpSetter by forwarding to the wrapped endpoint:
// the membership plane that requests dumps lives below the decorator.
func (e *chaosEndpoint) SetDump(fn func(reason string)) {
	if ds, ok := e.Endpoint.(DumpSetter); ok {
		ds.SetDump(fn)
	}
}

// Send implements Endpoint, possibly sleeping first (slow link).
func (e *chaosEndpoint) Send(dst int, msg []byte) {
	pl := &e.plan
	if pl.DelayRate > 0 && pl.targets(e.ID()) && pl.inWindow(e.step+1) {
		if e.rng.Float64() < pl.DelayRate {
			d := time.Duration(e.rng.Int63n(int64(pl.MaxDelay) + 1))
			// Sends happen during superstep e.step (0-based: e.step
			// supersteps have completed so far).
			e.buf.Fault(e.step, trace.FaultDelay, e.buf.Now(), int64(d))
			time.Sleep(d)
		}
	}
	e.Endpoint.Send(dst, msg)
}

// Sync implements Endpoint. A forced abort fires before the barrier
// (the rank "crashes" mid-superstep); a stall fires after the barrier
// completes, delaying this rank's next superstep while its peers wait
// at the following barrier — which is how a slow peer looks from the
// outside, and what core's Config.SyncTimeout must convert into a
// clean ErrTimeout naming this rank.
func (e *chaosEndpoint) Sync() (*Inbox, error) {
	e.step++
	pl := &e.plan
	if e.crash && e.step == pl.CrashStep {
		// Hard crash: the endpoint dies mid-superstep — aborted AND
		// closed underneath the still-running process, so peers see the
		// abort and (on tcp) this rank's sockets go away immediately.
		// The cooperative abort below, by contrast, leaves the endpoint
		// open for core's normal teardown.
		e.dead = true
		// Sync faults belong to the superstep that just executed:
		// 1-based e.step == 0-based e.step-1.
		e.buf.Fault(e.step-1, trace.FaultCrash, e.buf.Now(), 0)
		e.Endpoint.Abort()
		e.Endpoint.Close()
		return nil, fmt.Errorf("chaos: injected crash of rank %d in superstep %d [plan %s]: %w",
			e.ID(), e.step, pl, ErrCrashed)
	}
	if pl.AbortStep > 0 && e.step == pl.AbortStep && e.ID() == pl.AbortRank {
		e.buf.Fault(e.step-1, trace.FaultAbort, e.buf.Now(), 0)
		e.Endpoint.Abort()
		// Wraps ErrInjectedAbort, not ErrAborted: in core's error
		// selection the injected abort is the primary failure and must
		// outrank the secondary ErrAborted it induces in the peers.
		return nil, fmt.Errorf("chaos: injected abort of rank %d in superstep %d [plan %s]: %w",
			e.ID(), e.step, pl, ErrInjectedAbort)
	}
	inbox, err := e.Endpoint.Sync()
	if err != nil {
		return inbox, err
	}
	if pl.StallRate > 0 && pl.targets(e.ID()) && pl.inWindow(e.step) {
		if e.rng.Float64() < pl.StallRate {
			e.buf.Fault(e.step-1, trace.FaultStall, e.buf.Now(), int64(pl.Stall))
			time.Sleep(pl.Stall)
		}
	}
	return inbox, nil
}

// Abort implements Endpoint. A crashed endpoint is already aborted and
// closed; aborting it again must be a no-op.
func (e *chaosEndpoint) Abort() {
	if e.dead {
		return
	}
	e.Endpoint.Abort()
}

// Close implements Endpoint. The crash fault closes the base endpoint
// mid-superstep; core's deferred Close afterwards must not close it a
// second time.
func (e *chaosEndpoint) Close() error {
	if e.dead {
		return nil
	}
	return e.Endpoint.Close()
}

// handedBatches forwards the per-pair batching observability counter of
// the wrapped endpoint (chaos never changes how traffic is batched).
func (e *chaosEndpoint) handedBatches() int {
	if h, ok := e.Endpoint.(interface{ handedBatches() int }); ok {
		return h.handedBatches()
	}
	return 0
}

// chaosConn injects transient faults into a TCP connection: with
// probability rate a Read/Write call fails with an ErrTransient-wrapped
// error before touching the socket (so no bytes are lost and the
// caller's retry is safe). Each conn belongs to one endpoint goroutine;
// the rng is unshared.
type chaosConn struct {
	net.Conn
	rng  *rand.Rand
	rate float64
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if c.rng.Float64() < c.rate {
		return 0, fmt.Errorf("chaos: injected read fault: %w", ErrTransient)
	}
	return c.Conn.Read(p)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if c.rng.Float64() < c.rate {
		return 0, fmt.Errorf("chaos: injected write fault: %w", ErrTransient)
	}
	return c.Conn.Write(p)
}
