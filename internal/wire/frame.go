package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame batching.
//
// The transports exchange one contiguous buffer per (src,dst) pair per
// superstep — the paper's message combining: the MPI version ships "a
// distinct input and output buffer ... for each of the other processes"
// whole, and the shared-memory version deposits packets into large
// per-writer blocks (Appendix B). A batch is a sequence of frames laid
// out back to back:
//
//	[u32 payload length][payload bytes] ...
//
// AppendFrame combines a message into a growing batch; FrameIter
// recovers zero-copy payload views; FrameCount validates a received
// batch in a single pass before any view is handed out.

// frameHdrLen is the length prefix size of one frame.
const frameHdrLen = 4

// MaxFramePayload bounds a single frame's payload; it guards length
// prefixes read from untrusted bytes (a corrupt TCP stream).
const MaxFramePayload = 1 << 30

// AppendFrame appends one length-prefixed frame carrying msg to batch
// and returns the extended buffer. The msg bytes are copied; the caller
// keeps ownership of msg.
func AppendFrame(batch, msg []byte) []byte {
	batch = binary.LittleEndian.AppendUint32(batch, uint32(len(msg)))
	return append(batch, msg...)
}

// FrameCount validates batch in one pass and returns the number of
// frames it holds. It is the only integrity check a receiver needs
// before iterating zero-copy views.
func FrameCount(batch []byte) (int, error) {
	frames := 0
	for off := 0; off < len(batch); {
		if len(batch)-off < frameHdrLen {
			return frames, fmt.Errorf("wire: truncated frame header at offset %d of %d", off, len(batch))
		}
		n := binary.LittleEndian.Uint32(batch[off:])
		if n > MaxFramePayload {
			return frames, fmt.Errorf("wire: corrupt frame length %d at offset %d", n, off)
		}
		off += frameHdrLen
		if len(batch)-off < int(n) {
			return frames, fmt.Errorf("wire: truncated frame payload: need %d bytes at offset %d of %d", n, off, len(batch))
		}
		off += int(n)
		frames++
	}
	return frames, nil
}

// PktBytes is the fixed packet size of the cost model's h-relation
// currency (core.PktSize; duplicated here so wire stays dependency-free).
const PktBytes = 16

// BatchStats validates batch in one pass and returns both its frame
// count and its size in packet units — ceil(payload/PktBytes) per
// frame, minimum one, matching core's h-relation accounting. It is the
// observability companion of FrameCount: the transports record both
// quantities on every per-pair batch handoff so a trace validator can
// reconcile pair totals against the superstep counters.
func BatchStats(batch []byte) (frames, pkts int, err error) {
	for off := 0; off < len(batch); {
		if len(batch)-off < frameHdrLen {
			return frames, pkts, fmt.Errorf("wire: truncated frame header at offset %d of %d", off, len(batch))
		}
		n := binary.LittleEndian.Uint32(batch[off:])
		if n > MaxFramePayload {
			return frames, pkts, fmt.Errorf("wire: corrupt frame length %d at offset %d", n, off)
		}
		off += frameHdrLen
		if len(batch)-off < int(n) {
			return frames, pkts, fmt.Errorf("wire: truncated frame payload: need %d bytes at offset %d of %d", n, off, len(batch))
		}
		off += int(n)
		frames++
		if n <= PktBytes {
			pkts++
		} else {
			pkts += (int(n) + PktBytes - 1) / PktBytes
		}
	}
	return frames, pkts, nil
}

// frameAt returns the payload view of the frame starting at off and the
// offset of the following frame.
func frameAt(batch []byte, off int) ([]byte, int, error) {
	if len(batch)-off < frameHdrLen {
		return nil, off, fmt.Errorf("wire: truncated frame header at offset %d of %d", off, len(batch))
	}
	n := binary.LittleEndian.Uint32(batch[off:])
	if n > MaxFramePayload {
		return nil, off, fmt.Errorf("wire: corrupt frame length %d at offset %d", n, off)
	}
	start := off + frameHdrLen
	if len(batch)-start < int(n) {
		return nil, off, fmt.Errorf("wire: truncated frame payload: need %d bytes at offset %d of %d", n, start, len(batch))
	}
	return batch[start : start+int(n) : start+int(n)], start + int(n), nil
}

// FrameIter iterates the payload views of a validated batch. The zero
// value is an exhausted iterator; Reset arms it. Iteration is zero-copy:
// every view aliases the batch buffer.
type FrameIter struct {
	batch []byte
	off   int
}

// Reset arms the iterator over batch, which must have passed FrameCount
// (Next panics on corrupt framing, as a malformed batch at this layer
// is a transport bug, not recoverable input).
func (it *FrameIter) Reset(batch []byte) { it.batch, it.off = batch, 0 }

// Next returns the next payload view, or ok == false when the batch is
// exhausted.
func (it *FrameIter) Next() ([]byte, bool) {
	if it.off >= len(it.batch) {
		return nil, false
	}
	view, next, err := frameAt(it.batch, it.off)
	if err != nil {
		panic(err)
	}
	it.off = next
	return view, true
}
