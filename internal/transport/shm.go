package transport

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// ShmTransport is the shared-memory implementation of the library
// (paper, Appendix B.1): every process owns two input buffers used in
// alternating supersteps, writers deposit messages into the reader's
// buffer for the current parity, and supersteps are separated by an
// explicit central barrier ("processor 0 spins on variables 1 through
// p-1, while processors 1 through p-1 spin on variable 0"). The paper's
// barrier spins for as long as the wait lasts, which is free on the SGI
// Challenge, where every process had a processor of its own. Ranks here
// may outnumber cores (p = 4 on two), and a spinning waiter takes time
// slices from the ranks still computing, so a waiter spins only for
// spinBudget and then parks until the rank it waits for wakes it.
//
// Its link is the limit of the paper's optimization of "pre-allocating
// p memory blocks (one for each writer) at the start of each input
// buffer": each (writer, reader, parity) triple has a dedicated block,
// so writers never contend and no lock exists. At Sync a writer parks
// each peer's batch in that peer's block for the superstep's parity and
// takes back the block it parked there two supersteps earlier — which
// the reader has finished with, since it has entered the Sync after the
// one that delivered it — to combine the next superstep's messages
// into. The reader's Inbox returns zero-copy views into the blocks, and
// steady state allocates nothing.
//
// Membership and lifecycle (abort fan-out, who has detached) live in
// the LocalGroup; the barrier polls the member for both, and a parked
// waiter selects on the member's abort and the awaited peer's leave
// channels, so failures surface as errors instead of hangs.
type ShmTransport struct{}

// Name implements Transport.
func (ShmTransport) Name() string { return "shm" }

// Open implements Transport.
func (t ShmTransport) Open(p int) ([]Endpoint, error) {
	return t.OpenGroup(p, GroupOptions{})
}

// OpenGroup implements GroupTransport: the exchange engine composes
// with an in-process group carrying the job identity.
func (t ShmTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	if p < 1 {
		return nil, fmt.Errorf("shm: p must be >= 1, got %d", p)
	}
	g, err := NewLocalGroup(p, opts)
	if err != nil {
		return nil, err
	}
	st := &shmState{
		arrive: make([]atomic.Uint64, p*pad),
		parked: make([]atomic.Bool, p*pad),
		wake:   make([]chan struct{}, p),
	}
	for i := range st.wake {
		st.wake[i] = make(chan struct{}, 1)
	}
	for q := range st.blocks {
		st.blocks[q] = make([][]byte, p*p)
	}
	eps := make([]Endpoint, p)
	for i := 0; i < p; i++ {
		m, err := g.Join(i)
		if err != nil {
			return nil, err
		}
		e := &shmEndpoint{st: st}
		e.init(e, "shm", m, i, p)
		// Blocks grow from empty, not from the pool: they never return
		// to it. The self batch is the engine's, and pooled.
		for k := 0; k < p; k++ {
			if k != i {
				e.out[k], st.blocks[0][k*p+i], st.blocks[1][k*p+i] = []byte{}, []byte{}, []byte{}
			}
		}
		eps[i] = e
	}
	return eps, nil
}

// pad spaces per-process atomics across cache lines.
const pad = 8

// spinBudget is how long a barrier waiter yields, counted from its 16th
// yield, before it parks. It covers the barrier wait of a latency-bound
// superstep (ocean at 130² on shm), which then pays no wake-up; a wait
// for a rank that is still computing outlasts it and stops competing
// for the cores. DESIGN §5 has the sweep that chose it.
const spinBudget = 50 * time.Microsecond

type shmState struct {
	// blocks[q][dst*p+src] is the block src filled for dst in the last
	// superstep of parity q.
	blocks [2][][]byte

	// Barrier state (paper-style central barrier; the abort and
	// peer-exit flags it polls live in the group member).
	arrive  []atomic.Uint64
	release atomic.Uint64

	// parked[r*pad] is set while rank r may sleep on wake[r], which
	// holds at most one token.
	parked []atomic.Bool
	wake   []chan struct{}
}

// wakeRank hands rank r a token if it is parked. The caller has stored
// what r waits for, and r checks its condition again after raising its
// flag, so either r sees the store or this sees the flag: no wake-up is
// lost, and a stale token costs r one extra check and at most 15
// yields before it parks again.
func (st *shmState) wakeRank(r int) {
	if st.parked[r*pad].Load() {
		select {
		case st.wake[r] <- struct{}{}:
		default: // a token is already pending
		}
	}
}

type shmEndpoint struct {
	exchange
	st *shmState
}

// transfer implements link: park each peer's batch in its block, cross
// the barrier, then deliver the blocks addressed to this rank. The
// blocks stay the link's: a reader's views are valid until its next
// Sync, and no writer touches the block before then.
func (e *shmEndpoint) transfer() error {
	blocks := e.st.blocks[e.round%2]
	for dst := 0; dst < e.p; dst++ {
		if dst == e.id {
			continue
		}
		slot := &blocks[dst*e.p+e.id]
		prev := *slot
		*slot = e.out[dst]
		e.handoff(dst)
		e.out[dst] = prev[:0]
	}
	if err := e.barrier(); err != nil {
		return err
	}
	for src := 0; src < e.p; src++ {
		if b := blocks[e.id*e.p+src]; src != e.id && len(b) > 0 {
			if err := e.deliver(src, b); err != nil {
				return fmt.Errorf("shm: process %d: %w", e.id, err)
			}
		}
	}
	return nil
}

// leave implements link: closing this rank's leave channel wakes the
// peers parked on it, and spinning ones observe the flag.
func (e *shmEndpoint) leave() { e.m.Leave() }

// barrier is the paper's central barrier: rank 0 waits for every
// arrival and then stores release. Each arrival wakes a parked rank 0,
// and rank 0 wakes the parked ranks after the release.
func (e *shmEndpoint) barrier() error {
	st := e.st
	if e.p == 1 {
		return nil
	}
	round := uint64(e.round) + 1 // the first barrier has round 1
	st.arrive[e.id*pad].Store(round)
	if e.id != 0 {
		st.wakeRank(0)
		return e.await(0, &st.release, round)
	}
	for i := 1; i < e.p; i++ {
		if err := e.await(i, &st.arrive[i*pad], round); err != nil {
			return err
		}
	}
	st.release.Store(round)
	for i := 1; i < e.p; i++ {
		st.wakeRank(i)
	}
	return nil
}

// await is the barrier's one wait loop: until peer stores round into
// *v it yields for spinBudget, then parks on this rank's wake channel,
// the group's abort channel and peer's leave channel. It polls the
// member for aborts and peer's departure so failures surface as errors
// instead of hangs.
func (e *shmEndpoint) await(peer int, v *atomic.Uint64, round uint64) error {
	var spun time.Time // set at the first clock read
	for n := 1; v.Load() < round; n++ {
		// An abort raised after peer's store (a peer crashing in the
		// next superstep) does not undo the barrier.
		if e.m.Aborted() && v.Load() < round {
			return ErrAborted
		}
		if e.m.Left(peer) && v.Load() < round {
			if e.m.Aborted() {
				// A crashed peer aborts before leaving; report the
				// abort, not a mismatch.
				return ErrAborted
			}
			return fmt.Errorf("shm: process %d exited after %d supersteps while process %d is synchronizing superstep %d", peer, e.st.arrive[peer*pad].Load(), e.id, round)
		}
		// The clock is read on every 16th yield only: a read costs
		// about what a yield does, and reading it on every one made
		// the empty superstep at p = 16 5 % slower.
		if n%16 == 0 && spun.IsZero() {
			spun = time.Now()
		}
		if n%16 != 0 || time.Since(spun) < spinBudget {
			runtime.Gosched()
			continue
		}
		parked := &e.st.parked[e.id*pad]
		parked.Store(true)
		if v.Load() < round {
			select {
			case <-e.st.wake[e.id]:
			case <-e.m.AbortCh():
			case <-e.m.LeftCh(peer):
			}
		}
		parked.Store(false)
	}
	return nil
}
