package transport

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/wire"
)

// exchange is the superstep engine every endpoint embeds: the half of
// the paper's three library implementations (Appendix B.1 shared memory,
// B.2 MPI, B.3 TCP) that does not depend on how a buffer crosses from
// writer to reader. Send combines messages into one contiguous framed
// batch per destination; Sync delivers the rank's own batch to itself,
// has the link move one batch per ordered pair — the exchange doubles
// as the barrier — and arms the Inbox over the received batches,
// slotted by source rank, so every transport delivers in ascending
// source rank and, within a source, in send order.
type exchange struct {
	m    GroupMember
	link link
	name string // the transport's name, for errors
	id   int
	p    int
	// reserve is how many bytes every outgoing batch keeps in front of
	// its first frame for the link's own header (the socket engine's
	// batch header); views and trace counts skip them.
	reserve int
	out     [][]byte // per-destination batches being combined by Send
	inbox   Inbox
	batches [][]byte // the Inbox's batches, slotted by source rank
	frames  int      // frames in batches
	recycle [][]byte // pooled buffers behind the Inbox, returned at the next Sync/Close
	handed  int      // nonempty batches handed to peers (observability)
	round   int      // completed supersteps: the trace step in progress
	buf     *trace.Buf
	// pairs holds, while tracing, each outgoing batch's payload bytes,
	// frames and packet units, read before a reader can recycle it.
	pairs  [][3]int
	closed bool
}

// link is the transport-specific rest of an endpoint: how one
// superstep's batches move between ranks. The engine calls it once per
// superstep, never per message.
type link interface {
	// transfer runs inside Sync, after self-delivery. For every peer
	// dst it takes out[dst] (nil when nothing was sent) and calls
	// handoff(dst) once the batch is on its way; it may then park an
	// empty reusable buffer in out[dst]. It passes the batch each peer
	// sent this rank to accept (the engine owns and recycles it) or
	// deliver (the link keeps it and must not reuse it before this
	// rank's next Sync). On a failure it returns the error Sync reports.
	transfer() error
	// leave detaches the rank from its peers. Close calls it once.
	leave()
}

func (x *exchange) init(l link, name string, m GroupMember, id, p int) {
	x.link, x.name, x.m, x.id, x.p = l, name, m, id, p
	x.out = make([][]byte, p)
	x.batches = make([][]byte, p)
	x.pairs = make([][3]int, p)
}

func (x *exchange) ID() int { return x.id }
func (x *exchange) P() int  { return x.p }
func (x *exchange) Begin()  {}

// Abort implements Endpoint: the group latches the failure and fans it
// out to every peer blocked in the link.
func (x *exchange) Abort() { x.m.Abort() }

// SetTrace implements TraceSetter.
func (x *exchange) SetTrace(b *trace.Buf) { x.buf = b }

// handedBatches reports how many nonempty contiguous buffers this
// endpoint has handed to other processes.
func (x *exchange) handedBatches() int { return x.handed }

// Send implements Endpoint: msg is combined into the contiguous batch
// for dst (copy-in; the caller keeps msg), behind the reserved bytes.
func (x *exchange) Send(dst int, msg []byte) {
	b := x.out[dst]
	if b == nil {
		b = getBatch()[:x.reserve]
	}
	x.out[dst] = wire.AppendFrame(b, msg)
}

// Sync implements Endpoint: one total exchange of at most one framed
// buffer per (src,dst) pair.
func (x *exchange) Sync() (*Inbox, error) {
	x.release()
	clear(x.batches)
	x.frames = 0
	// Self-delivery: our own batch joins the inbox directly.
	if self := x.out[x.id]; len(self) > x.reserve {
		x.out[x.id] = nil
		x.recycle = append(x.recycle, self)
		_ = x.deliver(x.id, self[x.reserve:]) // locally produced, always valid
	}
	if x.buf != nil {
		for dst, b := range x.out {
			if len(b) > x.reserve {
				frames, pkts, _ := wire.BatchStats(b[x.reserve:]) // locally produced, always valid
				x.pairs[dst] = [3]int{len(b) - x.reserve, frames, pkts}
			}
		}
	}
	// The link's transfer is the superstep's whole data movement; what
	// the enclosing sync span adds is barrier skew and core's own work.
	start := x.buf.Now()
	err := x.link.transfer()
	if err != nil {
		return nil, err
	}
	x.buf.Exchange(x.round, start, x.buf.Now())
	x.round++
	x.inbox.arm(x.batches, x.frames)
	return &x.inbox, nil
}

// handoff records that the link has taken dst's batch: the handed count
// and the trace Pair move together, and out[dst] is cleared.
func (x *exchange) handoff(dst int) {
	b := x.out[dst]
	x.out[dst] = nil
	if len(b) <= x.reserve {
		return
	}
	x.handed++
	if x.buf != nil {
		pr := x.pairs[dst]
		x.buf.Pair(x.round, dst, x.buf.Now(), pr[0], pr[1], pr[2])
	}
}

// accept takes ownership of src's inbound batch, laid out as Send
// builds one — the link's reserved bytes in front of the frames — and
// delivers the frames; the whole buffer returns to the pool at the next
// Sync or Close.
func (x *exchange) accept(src int, b []byte) error {
	if len(b) <= x.reserve {
		putBatch(b) // a silent peer: no frames, perhaps a bare header
		return nil
	}
	x.recycle = append(x.recycle, b)
	return x.deliver(src, b[x.reserve:])
}

// deliver slots src's nonempty batch into the inbox, validating its
// framing in the one pass the Inbox relies on.
func (x *exchange) deliver(src int, b []byte) error {
	n, err := wire.FrameCount(b)
	if err != nil {
		return fmt.Errorf("corrupt batch from peer: %w", err)
	}
	x.frames += n
	x.batches[src] = b
	return nil
}

// release returns the buffers behind the previous Inbox to the pool.
func (x *exchange) release() {
	putBatches(x.recycle)
	x.recycle = x.recycle[:0]
}

// Close implements Endpoint: the Inbox's buffers go back to the pool and
// the link detaches the rank.
func (x *exchange) Close() error {
	if x.closed {
		return fmt.Errorf("%s: endpoint %d closed twice", x.name, x.id)
	}
	x.closed = true
	x.release()
	x.link.leave()
	return nil
}
