package trace

import "sync/atomic"

// Flight recorder: an always-on, fixed-size record of the last events
// of every rank, kept even when full tracing is off.
//
// The full Recorder grows its per-rank event slices without bound —
// exactly right for a run that was launched with -trace, and exactly
// wrong for the production case the postmortem machinery targets: a
// long-lived cluster rank that is convicted by the liveness protocol
// hours in. The flight ring inverts the trade: a fixed number of
// slots per rank, overwritten in a circle, so memory is O(ring size)
// regardless of run length and the *most recent* history — the part
// that explains a crash — is always available for a dump.
//
// Concurrency contract: unlike the Buf event slices (single-writer,
// rank-goroutine confined), the ring is written and snapshotted with
// atomics only. That is deliberate: heartbeat and RTT events arrive
// from the transport's control-plane goroutines, and a postmortem
// snapshot is taken while other ranks of the same process may still
// be running. The cost is a compare-and-swap per slot word instead of
// a plain store, which is still allocation-free — the exchange hot
// path stays inside core's TestExchangeAllocGate budget with the ring
// armed.

// DefaultRingSize is the per-rank flight-recorder capacity in events.
// A superstep contributes one compute, one sync and up to p pair
// events per rank, so 256 slots retain the last ~25 supersteps of an
// 8-rank run — far more than a root-cause analysis needs — in 32 KiB
// per rank.
const DefaultRingSize = 256

// Ring is a fixed-size, lock-free overwrite ring of Events. Writers
// claim a monotonically increasing ticket and write slot
// (ticket-1) & mask; tickets t and t+Cap() share a slot, and when
// their writes overlap the newer one wins. Readers return a slot only
// when every word of it belongs to one ticket. Any goroutine may
// record or snapshot.
type Ring struct {
	mask  uint64
	slots []ringSlot
	next  atomic.Uint64 // tickets issued == events ever recorded
}

// ringSlot publishes one Event as ringWords words, each holding the
// low 32 bits of its writer's ticket above 32 bits of the event. A
// writer changes a word only by compare-and-swap from an older
// ticket's word and stops at the first word a newer ticket holds, so
// a lapped writer never overwrites a newer one: whatever the
// interleaving, the newest ticket ends up in every word. seq is the
// newest ticket that wrote all its words (0 = none yet).
type ringSlot struct {
	seq   atomic.Uint64
	words [ringWords]atomic.Uint64
}

// ringWords is Kind, Rank and Step, then the low and high halves of
// Start, End, A, B, C and D.
const ringWords = 15

func packEvent(e Event) (h [ringWords]uint32) {
	h[0], h[1], h[2] = uint32(e.Kind), uint32(e.Rank), uint32(e.Step)
	for i, v := range [...]int64{e.Start, e.End, e.A, e.B, e.C, e.D} {
		h[3+2*i], h[4+2*i] = uint32(v), uint32(uint64(v)>>32)
	}
	return h
}

func unpackEvent(h *[ringWords]uint32) Event {
	v := func(i int) int64 { return int64(uint64(h[3+2*i]) | uint64(h[4+2*i])<<32) }
	return Event{Kind: Kind(h[0]), Rank: int32(h[1]), Step: int32(h[2]),
		Start: v(0), End: v(1), A: v(2), B: v(3), C: v(4), D: v(5)}
}

// NewRing returns a ring with at least size slots (rounded up to a
// power of two so the slot index is a mask, not a modulo).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
}

// Cap returns the number of slots.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many events were ever recorded (retained or
// overwritten). Snapshot length plus drops reconciles against it.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Record publishes e, overwriting the oldest slot when full. Safe from
// any goroutine; never allocates and never waits for another writer.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	t := r.next.Add(1) // 1-based ticket
	s := &r.slots[(t-1)&r.mask]
	tag := uint64(uint32(t)) << 32
	for i, v := range packEvent(e) {
		w := &s.words[i]
		for {
			old := w.Load()
			if int32(uint32(old>>32)-uint32(t)) > 0 {
				return // a newer lap owns the slot: its event wins
			}
			if w.CompareAndSwap(old, tag|uint64(v)) {
				break
			}
		}
	}
	for {
		old := s.seq.Load()
		if old >= t || s.seq.CompareAndSwap(old, t) {
			return
		}
	}
}

// Snapshot copies the retained suffix of the event stream in record
// order. Safe concurrently with writers: a slot that is mid-write or
// is being overwritten by a newer lap has words of another ticket and
// is dropped rather than returned torn, so the result is always a
// (possibly shorter) suffix of fully published events.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	total := r.next.Load()
	n := uint64(len(r.slots))
	lo := uint64(1)
	if total > n {
		lo = total - n + 1
	}
	out := make([]Event, 0, total-lo+1)
slots:
	for t := lo; t <= total; t++ {
		s := &r.slots[(t-1)&r.mask]
		if s.seq.Load() != t {
			continue // in flight, or already lapped by a newer ticket
		}
		var h [ringWords]uint32
		for i := range s.words {
			w := s.words[i].Load()
			if uint32(w>>32) != uint32(t) {
				continue slots // a newer ticket is overwriting the slot
			}
			h[i] = uint32(w)
		}
		out = append(out, unpackEvent(&h))
	}
	return out
}
