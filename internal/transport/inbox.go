package transport

import (
	"sync"

	"repro/internal/wire"
)

// Inbox holds one superstep's delivery to one process: at most one
// contiguous framed batch per source, slotted by source rank.
//
// Ordering contract: every transport delivers batches in ascending
// source rank, and frames of one source in the order it sent them — so
// a program that folds its inbox in arrival order (a float sum, say)
// computes the same bits on every transport. Silent sources leave nil
// slots; the iterators skip them.
//
// Frame views returned by Next alias the received buffers. They are
// valid until the next Sync or Close call on the endpoint that returned
// the Inbox; that call recycles the underlying buffers into the shared
// pool (or, on shm, lets the writers reuse their blocks). A view may
// be mutated freely within its window — frames never overlap, so
// scribbling on one view cannot corrupt another frame or the framing
// itself — but must not be retained past it; callers that need durable
// data copy it out before their next Sync.
type Inbox struct {
	batches [][]byte
	frames  int

	// Iteration state: cur indexes batches, it walks the current batch,
	// left counts undelivered frames.
	cur  int
	it   wire.FrameIter
	left int
}

// NewInbox builds an Inbox over caller-owned framed batches, outside
// any endpoint. It exists for checkpoint restore (internal/ckpt): a
// resumed process's first superstep starts with the inbox its snapshot
// recorded, and those buffers belong to the caller, not to a
// transport's pool — they are never recycled, so the usual
// valid-until-next-Sync window applies only to the views, not to the
// backing storage.
func NewInbox(batches [][]byte) (*Inbox, error) {
	frames := 0
	for _, b := range batches {
		n, err := wire.FrameCount(b)
		if err != nil {
			return nil, err
		}
		frames += n
	}
	in := &Inbox{}
	in.arm(batches, frames)
	return in, nil
}

// arm installs batches the caller has already validated, holding frames
// frames in total, and rewinds the iterator. The exchange engine counts
// each batch as it arrives (so a corrupt one is attributed to its
// source peer) and arms the inbox without a second pass.
func (in *Inbox) arm(batches [][]byte, frames int) {
	in.batches = batches
	in.frames = frames
	in.cur = 0
	in.it.Reset(nil)
	if len(batches) > 0 {
		in.it.Reset(batches[0])
	}
	in.left = in.frames
}

// Next returns a zero-copy view of the next undelivered frame, in
// ascending source rank, or ok == false when none remain.
func (in *Inbox) Next() ([]byte, bool) {
	if in == nil {
		return nil, false
	}
	for {
		if view, ok := in.it.Next(); ok {
			in.left--
			return view, true
		}
		in.cur++
		if in.cur >= len(in.batches) {
			return nil, false
		}
		in.it.Reset(in.batches[in.cur])
	}
}

// Pending returns the number of undelivered frames — messages, not
// packet units or buffers (the batched engine's Pending accounting).
func (in *Inbox) Pending() int {
	if in == nil {
		return 0
	}
	return in.left
}

// Frames returns the total number of frames delivered, regardless of
// how many have been consumed.
func (in *Inbox) Frames() int {
	if in == nil {
		return 0
	}
	return in.frames
}

// Batches returns the framed batches the inbox iterates, delivered or
// not, in delivery order; nil entries are silent sources. Checkpoint
// capture streams them into a snapshot as they are. The slice and its
// buffers are read-only and obey the same validity window as Next's
// views.
func (in *Inbox) Batches() [][]byte {
	if in == nil {
		return nil
	}
	return in.batches
}

// EachFrameLen calls fn with every frame's payload length without
// consuming the iterator; cost accounting walks headers only.
func (in *Inbox) EachFrameLen(fn func(n int)) {
	if in == nil {
		return
	}
	var it wire.FrameIter
	for _, b := range in.batches {
		it.Reset(b)
		for {
			view, ok := it.Next()
			if !ok {
				break
			}
			fn(len(view))
		}
	}
}

// batchCap is the initial capacity of pooled batch buffers: large
// enough that small supersteps never regrow, small enough to keep
// pooled memory bounded.
const batchCap = 4096

// batchPool recycles per-pair batch buffers across supersteps and
// endpoints. Ownership flows send-side endpoint -> peer's inbox ->
// pool (at the peer's next Sync); the release contract in Endpoint.Sync
// guarantees no buffer re-enters the pool while a view into it is
// still valid.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, batchCap)
		return &b
	},
}

// boxPool recycles the *[]byte boxes batchPool stores its buffers in
// (a sync.Pool holds pointers; boxing a fresh slice header on every Put
// would cost one allocation per recycled buffer). A box shuttles
// between the two pools: full in batchPool, empty here.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// getBatch returns an empty pooled buffer.
func getBatch() []byte {
	box := batchPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// putBatch recycles a buffer obtained from getBatch (or grown from
// one). Callers must not touch b afterwards.
func putBatch(b []byte) {
	if cap(b) == 0 {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = b
	batchPool.Put(box)
}

// putBatches recycles every buffer of bs and clears the entries.
func putBatches(bs [][]byte) {
	for i, b := range bs {
		putBatch(b)
		bs[i] = nil
	}
}
