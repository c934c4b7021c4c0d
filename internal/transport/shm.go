package transport

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// ShmTransport is the shared-memory implementation of the library
// (paper, Appendix B.1): every process owns two input buffers used in
// alternating supersteps, writers deposit messages into the reader's
// buffer for the current parity, and supersteps are separated by an
// explicit spin barrier ("processor 0 spins on variables 1 through p-1,
// while processors 1 through p-1 spin on variable 0").
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
// the LocalGroup; the barrier polls the member for both, so failures
// surface as errors instead of hangs.
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
	st := &shmState{arrive: make([]atomic.Uint64, p*pad)}
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

type shmState struct {
	// blocks[q][dst*p+src] is the block src filled for dst in the last
	// superstep of parity q.
	blocks [2][][]byte

	// Barrier state (paper-style central barrier; the abort and
	// peer-exit flags it polls live in the group member).
	arrive  []atomic.Uint64
	release atomic.Uint64
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

// leave implements link: peers spinning at the barrier observe the
// departure through the member.
func (e *shmEndpoint) leave() { e.m.Leave() }

// barrier is the paper's central spin barrier, polling the group member
// for aborts and departed peers so failures surface as errors instead
// of hangs.
func (e *shmEndpoint) barrier() error {
	st := e.st
	if e.p == 1 {
		return nil
	}
	round := uint64(e.round) + 1 // the first barrier has round 1
	st.arrive[e.id*pad].Store(round)
	if e.id == 0 {
		for i := 1; i < e.p; i++ {
			for st.arrive[i*pad].Load() < round {
				if e.m.Aborted() {
					return ErrAborted
				}
				if e.m.Left(i) && st.arrive[i*pad].Load() < round {
					if e.m.Aborted() {
						// A crashed peer aborts before leaving; report
						// the abort, not a mismatch.
						return ErrAborted
					}
					return fmt.Errorf("shm: process %d exited after %d supersteps while process 0 is synchronizing superstep %d", i, st.arrive[i*pad].Load(), round)
				}
				runtime.Gosched()
			}
		}
		st.release.Store(round)
		return nil
	}
	for st.release.Load() < round {
		// An abort raised after rank 0 released this round (a peer
		// crashing in the next superstep) does not undo the barrier.
		if e.m.Aborted() && st.release.Load() < round {
			return ErrAborted
		}
		if e.m.Left(0) && st.release.Load() < round {
			if e.m.Aborted() {
				return ErrAborted
			}
			return fmt.Errorf("shm: process 0 exited while process %d is synchronizing superstep %d", e.id, round)
		}
		runtime.Gosched()
	}
	return nil
}
