package transport

import "fmt"

// SimTransport is the deterministic single-processor simulation of a BSP
// machine. The paper measured work depth and total work by "simulating
// the parallel computation on a single processor using an IPC
// shared-memory implementation of our library" (§3); SimTransport plays
// that role here.
//
// Exactly one process runs at a time. Its link is a token that
// circulates through the processes in rank order; a process acquires the
// token in Begin, runs one superstep's local computation, and releases
// the token in Sync. When every live process has reached the superstep
// boundary the queued per-(src,dst) batches are delivered and a new
// round starts at the lowest live rank. Because the token holder runs
// exclusively, wall-clock time spent between Sync calls is an accurate
// measurement of that process's local computation, even on a single-CPU
// host.
//
// Unlike the concurrent transports, Sim tolerates processes that finish
// early: the remaining processes keep synchronizing among themselves.
type SimTransport struct{}

// Name implements Transport.
func (SimTransport) Name() string { return "sim" }

// Open implements Transport.
func (t SimTransport) Open(p int) ([]Endpoint, error) {
	return t.OpenGroup(p, GroupOptions{})
}

// OpenGroup implements GroupTransport.
func (SimTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	if p < 1 {
		return nil, fmt.Errorf("sim: p must be >= 1, got %d", p)
	}
	g, err := NewLocalGroup(p, opts)
	if err != nil {
		return nil, err
	}
	st := &simState{
		p:         p,
		turn:      make([]chan struct{}, p),
		pending:   make([][][]byte, p),
		ready:     make([][][]byte, p),
		active:    make([]bool, p),
		arrived:   make([]bool, p),
		numActive: p,
	}
	for i := range st.turn {
		st.turn[i] = make(chan struct{}, 1)
		st.pending[i] = make([][]byte, p)
		st.ready[i] = make([][]byte, p)
		st.active[i] = true
	}
	st.turn[0] <- struct{}{} // prime: rank 0 runs first
	eps := make([]Endpoint, p)
	for i := 0; i < p; i++ {
		m, err := g.Join(i)
		if err != nil {
			return nil, err
		}
		e := &simEndpoint{st: st}
		e.init(e, "sim", m, i, p)
		eps[i] = e
	}
	return eps, nil
}

// simState is mutated only by the process currently holding the token;
// the channel handoff provides the happens-before edges, so no locks are
// needed.
type simState struct {
	p    int
	turn []chan struct{}
	// pending[dst][src] is the contiguous batch queued by src for dst in
	// the current superstep; ready[dst][src] holds the batches delivered
	// when a round completes.
	pending    [][][]byte
	ready      [][][]byte
	active     []bool
	arrived    []bool
	numActive  int
	numArrived int
}

type simEndpoint struct {
	exchange
	st *simState
}

// Begin blocks until this process is granted the token for the first
// time.
func (e *simEndpoint) Begin() { <-e.st.turn[e.id] }

// transfer implements link: queue this superstep's batches, pass the
// token, and take the batches delivered when it comes back. An abort —
// possibly latched from core's watchdog goroutine while the token
// holder stalls — is observed on both sides of the handoff.
func (e *simEndpoint) transfer() error {
	st := e.st
	if e.m.Aborted() {
		return ErrAborted
	}
	for dst, b := range e.out {
		if b != nil { // self-delivery already took out[e.id]
			st.pending[dst][e.id] = b
			e.handoff(dst)
		}
	}
	st.arrived[e.id] = true
	st.numArrived++
	st.advance(e.id)
	<-st.turn[e.id]
	if e.m.Aborted() {
		return ErrAborted
	}
	for src, b := range st.ready[e.id] {
		if b != nil {
			st.ready[e.id][src] = nil
			if err := e.accept(src, b); err != nil {
				return fmt.Errorf("sim: process %d: %w", e.id, err)
			}
		}
	}
	return nil
}

// leave implements link: the process leaves the machine; remaining
// processes continue.
func (e *simEndpoint) leave() {
	st := e.st
	// Undelivered batches addressed to this process are discarded.
	for src := 0; src < st.p; src++ {
		putBatch(st.ready[e.id][src])
		putBatch(st.pending[e.id][src])
		st.ready[e.id][src], st.pending[e.id][src] = nil, nil
	}
	e.m.Leave()
	st.active[e.id] = false
	st.numActive--
	if st.numActive > 0 {
		st.advance(e.id)
	}
}

// advance hands the token to the next runnable process, completing the
// superstep round first if every live process has arrived. Called only
// by the token holder.
func (st *simState) advance(from int) {
	if st.numArrived == st.numActive {
		// Round complete: deliver all queued batches and restart the
		// round at the lowest live rank.
		for i := 0; i < st.p; i++ {
			if st.arrived[i] {
				for s := 0; s < st.p; s++ {
					st.ready[i][s] = st.pending[i][s]
					st.pending[i][s] = nil
				}
				st.arrived[i] = false
			}
		}
		st.numArrived = 0
		for i := 0; i < st.p; i++ {
			if st.active[i] {
				st.turn[i] <- struct{}{}
				return
			}
		}
		return
	}
	// Round still in progress: token goes to the next live process that
	// has not yet reached the boundary.
	for k := 1; k <= st.p; k++ {
		i := (from + k) % st.p
		if st.active[i] && !st.arrived[i] {
			st.turn[i] <- struct{}{}
			return
		}
	}
}
