package transport

import "fmt"

// XchgTransport mirrors the MPI implementation of the library (paper,
// Appendix B.2): "each process uses a distinct input and output buffer to
// communicate with each of the other processes... When a process reaches
// a superstep boundary, it posts an Irecv for each input buffer and an
// Isend for each output buffer, and then waits until all 2p incoming and
// outgoing transmissions are completed."
//
// Its link is a dedicated buffered channel per ordered pair of
// processes, carrying exactly one contiguous framed batch (the
// per-superstep output buffer, shipped whole) per superstep. The
// buffering plays the role of the nonblocking Isend; waiting for the p-1
// inbound batches plays the role of the Waitall, and — exactly as in the
// paper — the complete exchange doubles as the barrier: no separate
// synchronization exists. Batch buffers are pooled: a receiver recycles
// the buffers behind its previous Inbox when it next calls Sync.
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
	ch := make([][]chan []byte, p) // ch[src][dst] carries one framed batch per superstep
	for i := 0; i < p; i++ {
		ch[i] = make([]chan []byte, p)
		for j := 0; j < p; j++ {
			if i != j {
				// Capacity 1 = one in-flight superstep batch per
				// ordered pair (the Isend buffer).
				ch[i][j] = make(chan []byte, 1)
			}
		}
	}
	eps := make([]Endpoint, p)
	for i := 0; i < p; i++ {
		m, err := g.Join(i)
		if err != nil {
			return nil, err
		}
		e := &xchgEndpoint{ch: ch}
		e.init(e, "xchg", m, i, p)
		eps[i] = e
	}
	return eps, nil
}

type xchgEndpoint struct {
	exchange
	ch [][]chan []byte // shared by the machine: ch[src][dst]
}

// transfer implements link: "Isend" every output batch, including empty
// (nil) ones — the exchange is the barrier, so every pair must
// communicate every superstep — then "Irecv + Waitall" one batch from
// every peer.
func (e *xchgEndpoint) transfer() error {
	for dst := 0; dst < e.p; dst++ {
		if dst == e.id {
			continue
		}
		select {
		case e.ch[e.id][dst] <- e.out[dst]:
			e.handoff(dst)
		case <-e.m.AbortCh():
			return ErrAborted
		case <-e.m.LeftCh(dst):
			if e.m.Aborted() {
				// A crashed peer aborts before leaving; report the
				// abort, not a superstep mismatch.
				return ErrAborted
			}
			// The peer exited; its inbound slot will never drain.
			return fmt.Errorf("xchg: process %d exited while process %d is synchronizing", dst, e.id)
		}
	}
	for src := 0; src < e.p; src++ {
		if src == e.id {
			continue
		}
		var batch []byte
		select {
		case batch = <-e.ch[src][e.id]:
		case <-e.m.AbortCh():
			return ErrAborted
		case <-e.m.LeftCh(src):
			// The peer may have sent its batch just before exiting;
			// drain it if present, otherwise the superstep counts
			// genuinely diverged.
			select {
			case batch = <-e.ch[src][e.id]:
			default:
				if e.m.Aborted() {
					return ErrAborted
				}
				return fmt.Errorf("xchg: process %d exited while process %d expected a superstep batch", src, e.id)
			}
		}
		if err := e.accept(src, batch); err != nil {
			return fmt.Errorf("xchg: process %d: %w", e.id, err)
		}
	}
	return nil
}

// leave implements link.
func (e *xchgEndpoint) leave() { e.m.Leave() }
