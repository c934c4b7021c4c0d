package transport

import (
	"fmt"

	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/wire"
)

// XchgTransport mirrors the MPI implementation of the library (paper,
// Appendix B.2): "each process uses a distinct input and output buffer to
// communicate with each of the other processes... When a process reaches
// a superstep boundary, it posts an Irecv for each input buffer and an
// Isend for each output buffer, and then waits until all 2p incoming and
// outgoing transmissions are completed."
//
// Each ordered pair of processes has a dedicated buffered channel
// carrying exactly one contiguous framed batch (the per-superstep output
// buffer, shipped whole) per superstep. The buffering plays the role of
// the nonblocking Isend; waiting for the p-1 inbound batches plays the
// role of the Waitall, and — exactly as in the paper — the complete
// exchange doubles as the barrier: no separate synchronization exists.
// Batch buffers are pooled: a receiver recycles the buffers behind its
// previous Inbox when it next calls Sync.
//
// Membership and lifecycle live in the LocalGroup: the exchange selects
// on the member's abort and per-rank leave channels, so a failed or
// departed peer surfaces as an error instead of a hang.
type XchgTransport struct{}

// Name implements Transport.
func (XchgTransport) Name() string { return "xchg" }

// Open implements Transport.
func (t XchgTransport) Open(p int) ([]Endpoint, error) {
	return t.OpenGroup(p, GroupOptions{})
}

// OpenGroup implements GroupTransport.
func (XchgTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	if p < 1 {
		return nil, fmt.Errorf("xchg: p must be >= 1, got %d", p)
	}
	g, err := NewLocalGroup(p, opts)
	if err != nil {
		return nil, err
	}
	st := &xchgState{p: p}
	st.ch = make([][]chan []byte, p)
	for i := 0; i < p; i++ {
		st.ch[i] = make([]chan []byte, p)
		for j := 0; j < p; j++ {
			if i != j {
				// Capacity 1 = one in-flight superstep batch per
				// ordered pair (the Isend buffer).
				st.ch[i][j] = make(chan []byte, 1)
			}
		}
	}
	eps := make([]Endpoint, p)
	for i := 0; i < p; i++ {
		m, err := g.Join(i)
		if err != nil {
			return nil, err
		}
		eps[i] = &xchgEndpoint{st: st, m: m, id: i, out: make([][]byte, p), batches: make([][]byte, p)}
	}
	return eps, nil
}

type xchgState struct {
	p  int
	ch [][]chan []byte // ch[src][dst] carries one framed batch per superstep
}

type xchgEndpoint struct {
	st      *xchgState
	m       GroupMember
	id      int
	out     [][]byte // per-destination contiguous output batches
	inbox   Inbox
	batches [][]byte // batch views handed to inbox, slotted by source rank
	recycle [][]byte // pooled buffers to return at the next Sync/Close
	handed  int      // nonempty batches handed to peers (observability)
	round   int      // completed supersteps (trace step index)
	buf     *trace.Buf
	pr      *prof.Rank
	closed  bool
}

// SetTrace implements TraceSetter.
func (e *xchgEndpoint) SetTrace(b *trace.Buf) { e.buf = b }

// SetProf implements ProfSetter.
func (e *xchgEndpoint) SetProf(r *prof.Rank) { e.pr = r }

func (e *xchgEndpoint) ID() int { return e.id }
func (e *xchgEndpoint) P() int  { return e.st.p }
func (e *xchgEndpoint) Begin()  {}

// handedBatches reports how many nonempty contiguous buffers this
// endpoint has handed to other processes.
func (e *xchgEndpoint) handedBatches() int { return e.handed }

// Abort implements Endpoint.
func (e *xchgEndpoint) Abort() { e.m.Abort() }

// Close implements Endpoint.
func (e *xchgEndpoint) Close() error {
	if e.closed {
		return fmt.Errorf("xchg: endpoint %d closed twice", e.id)
	}
	e.closed = true
	putBatches(e.recycle)
	e.recycle = e.recycle[:0]
	e.m.Leave()
	return nil
}

// Send implements Endpoint: msg is combined into the contiguous batch
// for dst (copy-in; the caller keeps msg).
func (e *xchgEndpoint) Send(dst int, msg []byte) {
	b := e.out[dst]
	if b == nil {
		b = getBatch()
	}
	e.out[dst] = wire.AppendFrame(b, msg)
}

// Sync implements Endpoint: the total exchange ships one batch per
// (src,dst) pair and doubles as the barrier.
func (e *xchgEndpoint) Sync() (*Inbox, error) {
	st := e.st
	// Entering Sync invalidates the previous Inbox: recycle its buffers.
	putBatches(e.recycle)
	e.recycle = e.recycle[:0]
	clear(e.batches)
	// The channel sends and receives below are the transport's entire
	// data movement (the exchange doubles as the barrier), so the whole
	// Isend/Waitall body is the exchange slice of the sync phase.
	e.pr.Mark(prof.Exchange)
	// "Isend" every output batch, including empty (nil) ones: the
	// exchange is the barrier, so every pair must communicate every
	// superstep.
	for dst := 0; dst < st.p; dst++ {
		if dst == e.id {
			continue
		}
		// Record the handoff before ownership passes over the channel:
		// once sent, the batch belongs to the receiver.
		if b := e.out[dst]; e.buf != nil && len(b) > 0 {
			frames, pkts, _ := wire.BatchStats(b) // locally produced, always valid
			e.buf.Pair(e.round, dst, e.buf.Now(), len(b), frames, pkts)
		}
		select {
		case st.ch[e.id][dst] <- e.out[dst]:
			if len(e.out[dst]) > 0 {
				e.handed++
			}
		case <-e.m.AbortCh():
			return nil, ErrAborted
		case <-e.m.LeftCh(dst):
			if e.m.Aborted() {
				// A crashed peer aborts before leaving; report the
				// abort, not a superstep mismatch.
				return nil, ErrAborted
			}
			// The peer exited; its inbound slot will never drain.
			return nil, fmt.Errorf("xchg: process %d exited while process %d is synchronizing", dst, e.id)
		}
		e.out[dst] = nil
	}
	// Self-delivery: our own batch joins the inbox directly.
	if len(e.out[e.id]) > 0 {
		e.batches[e.id] = e.out[e.id]
		e.recycle = append(e.recycle, e.out[e.id])
	}
	e.out[e.id] = nil
	// "Irecv + Waitall": collect one batch from every peer.
	for src := 0; src < st.p; src++ {
		if src == e.id {
			continue
		}
		select {
		case batch := <-st.ch[src][e.id]:
			e.accept(src, batch)
		case <-e.m.AbortCh():
			return nil, ErrAborted
		case <-e.m.LeftCh(src):
			// The peer may have sent its batch just before exiting;
			// drain it if present, otherwise the superstep counts
			// genuinely diverged.
			select {
			case batch := <-st.ch[src][e.id]:
				e.accept(src, batch)
			default:
				if e.m.Aborted() {
					return nil, ErrAborted
				}
				return nil, fmt.Errorf("xchg: process %d exited while process %d expected a superstep batch", src, e.id)
			}
		}
	}
	e.pr.Mark(prof.Sync)
	if err := e.inbox.reset(e.batches); err != nil {
		return nil, fmt.Errorf("xchg: process %d: %w", e.id, err)
	}
	e.round++
	return &e.inbox, nil
}

// accept takes ownership of an inbound batch: nonempty batches feed the
// inbox and are recycled when the views expire.
func (e *xchgEndpoint) accept(src int, batch []byte) {
	if len(batch) == 0 {
		putBatch(batch)
		return
	}
	e.batches[src] = batch
	e.recycle = append(e.recycle, batch)
}
