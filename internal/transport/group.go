package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// GroupOptions identify one gang instance of a BSP job. The zero value
// is a valid anonymous single-epoch job.
type GroupOptions struct {
	// JobID names the job; cluster peers with a different job id are
	// rejected at the handshake.
	JobID string
	// Epoch is the gang generation. A recovery relaunch bumps it, so
	// processes surviving from the crashed generation are fenced off at
	// the handshake instead of corrupting the new gang's exchanges.
	Epoch int
}

// GroupMember is one rank's handle on its process group: the
// membership and lifecycle half of the old Endpoint contract. An
// exchange engine consults its member for "has the run aborted?",
// "has rank r detached?" and uses Abort/Leave to publish its own
// transitions; it never tracks peer liveness itself.
//
// Rank, P and Options are immutable. Abort, Aborted, AbortCh, Left and
// LeftCh are safe for concurrent use (core's watchdog aborts from
// outside the rank goroutines). Leave is called once, from the owning
// rank's Close.
type GroupMember interface {
	// Rank is this member's rank in [0, P).
	Rank() int
	// P is the machine width.
	P() int
	// Options returns the group's job identity.
	Options() GroupOptions
	// OnAbort registers a hook run exactly once when the group aborts
	// (from any member). Exchange engines use it to close blocking
	// resources — sockets, channels — so peers stuck mid-exchange
	// unblock. A hook registered after the abort runs immediately.
	OnAbort(fn func())
	// Abort marks the whole group as failed and fans the signal out to
	// every member (running the OnAbort hooks once).
	Abort()
	// Aborted reports whether any member aborted the group.
	Aborted() bool
	// AbortCh is closed when the group aborts.
	AbortCh() <-chan struct{}
	// Leave detaches this rank from the group: peers observe it via
	// Left/LeftCh and must not expect further supersteps from it. It
	// reports whether this was the last locally-hosted member, which is
	// the exchange engine's cue to tear down shared local resources.
	Leave() (last bool)
	// Left reports whether rank has left the group.
	Left(rank int) bool
	// LeftCh is closed when rank leaves the group.
	LeftCh(rank int) <-chan struct{}
}

// GroupTransport is implemented by transports whose machines can carry
// a job identity: OpenGroup is Open with explicit GroupOptions. Plain
// Open uses the zero options.
type GroupTransport interface {
	Transport
	OpenGroup(p int, opts GroupOptions) ([]Endpoint, error)
}

// OpenWithOptions opens p endpoints on t, passing opts through when t
// supports group options and falling back to plain Open otherwise.
func OpenWithOptions(t Transport, p int, opts GroupOptions) ([]Endpoint, error) {
	if gt, ok := t.(GroupTransport); ok {
		return gt.OpenGroup(p, opts)
	}
	return t.Open(p)
}

// groupPad spaces the per-rank left flags across cache lines: the shm
// barrier polls them in a spin loop.
const groupPad = 8

// groupCore is the shared membership state machine behind both
// LocalGroup members and cluster members: the abort latch with its
// hook fan-out, and the per-rank left flags. Cluster members drive the
// same core from coordinator control frames instead of direct calls.
type groupCore struct {
	p    int
	opts GroupOptions

	aborted atomic.Bool
	abortCh chan struct{}

	left   []atomic.Bool // indexed rank*groupPad
	leftCh []chan struct{}
	leftN  atomic.Int64

	mu         sync.Mutex
	abortHooks []func()
	abortDone  bool
}

func newGroupCore(p int, opts GroupOptions) *groupCore {
	c := &groupCore{
		p:       p,
		opts:    opts,
		abortCh: make(chan struct{}),
		left:    make([]atomic.Bool, p*groupPad),
		leftCh:  make([]chan struct{}, p),
	}
	for i := range c.leftCh {
		c.leftCh[i] = make(chan struct{})
	}
	return c
}

// abort latches the failure and runs the registered hooks exactly once.
// The flag is published before the channel closes and the hooks run, so
// an exchange engine woken by a closing socket or channel always
// observes Aborted() == true.
func (c *groupCore) abort() {
	if !c.aborted.CompareAndSwap(false, true) {
		return
	}
	close(c.abortCh)
	c.mu.Lock()
	hooks := c.abortHooks
	c.abortHooks = nil
	c.abortDone = true
	c.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

func (c *groupCore) onAbort(fn func()) {
	c.mu.Lock()
	if c.abortDone {
		c.mu.Unlock()
		fn()
		return
	}
	c.abortHooks = append(c.abortHooks, fn)
	c.mu.Unlock()
}

// markLeft records that rank has detached (idempotent) and reports
// whether it was the last of the p ranks to do so.
func (c *groupCore) markLeft(rank int) (last bool) {
	if !c.left[rank*groupPad].CompareAndSwap(false, true) {
		return false
	}
	close(c.leftCh[rank])
	return int(c.leftN.Add(1)) == c.p
}

func (c *groupCore) isLeft(rank int) bool            { return c.left[rank*groupPad].Load() }
func (c *groupCore) leftChan(rank int) chan struct{} { return c.leftCh[rank] }

// LocalGroup owns rank membership and lifecycle for an in-process gang:
// all p ranks are goroutines in this process, so joining is a bounds
// check, the readiness barrier is implicit (Open returns only after
// every endpoint exists), and abort/leave fan-out is shared memory. The
// cluster transport keeps the same membership over a coordinator
// process (see Coordinator).
type LocalGroup struct {
	core   *groupCore
	joined []atomic.Bool
	// members holds the p handles contiguously so joining allocates
	// nothing beyond the group itself (Open runs once per machine, but
	// whole-machine alloc benchmarks count it).
	members []localMember
}

// NewLocalGroup creates an in-process group of p ranks.
func NewLocalGroup(p int, opts GroupOptions) (*LocalGroup, error) {
	if p < 1 {
		return nil, fmt.Errorf("group: p must be >= 1, got %d", p)
	}
	g := &LocalGroup{core: newGroupCore(p, opts), joined: make([]atomic.Bool, p), members: make([]localMember, p)}
	for i := range g.members {
		g.members[i] = localMember{core: g.core, rank: i}
	}
	return g, nil
}

// Join admits rank into the group and returns its membership handle.
// Each rank joins exactly once per group.
func (g *LocalGroup) Join(rank int) (GroupMember, error) {
	if rank < 0 || rank >= g.core.p {
		return nil, fmt.Errorf("group: rank %d out of range [0,%d)", rank, g.core.p)
	}
	if !g.joined[rank].CompareAndSwap(false, true) {
		return nil, fmt.Errorf("group: duplicate rank %d: already joined", rank)
	}
	return &g.members[rank], nil
}

type localMember struct {
	core *groupCore
	rank int
}

func (m *localMember) Rank() int                       { return m.rank }
func (m *localMember) P() int                          { return m.core.p }
func (m *localMember) Options() GroupOptions           { return m.core.opts }
func (m *localMember) OnAbort(fn func())               { m.core.onAbort(fn) }
func (m *localMember) Abort()                          { m.core.abort() }
func (m *localMember) Aborted() bool                   { return m.core.aborted.Load() }
func (m *localMember) AbortCh() <-chan struct{}        { return m.core.abortCh }
func (m *localMember) Leave() (last bool)              { return m.core.markLeft(m.rank) }
func (m *localMember) Left(rank int) bool              { return m.core.isLeft(rank) }
func (m *localMember) LeftCh(rank int) <-chan struct{} { return m.core.leftChan(rank) }
