package trace

import (
	"sync"
	"testing"
)

// TestTraceFlightRingWraparound: a single writer that overflows the
// ring retains exactly the last Cap() events, in order, and the total
// accounts for every event ever recorded.
func TestTraceFlightRingWraparound(t *testing.T) {
	r := NewRing(64)
	const n = 1000
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindCompute, Step: int32(i), Start: int64(i)})
	}
	if got := r.Total(); got != n {
		t.Fatalf("Total = %d, want %d", got, n)
	}
	evs := r.Snapshot()
	if len(evs) != r.Cap() {
		t.Fatalf("retained %d events, want the full ring of %d", len(evs), r.Cap())
	}
	for i, e := range evs {
		want := int32(n - r.Cap() + i)
		if e.Step != want {
			t.Fatalf("slot %d holds step %d, want %d (last-N in order)", i, e.Step, want)
		}
	}
}

// TestTraceFlightRingSmall covers the degenerate sizes: a ring never
// rounds below one slot, and an unfilled ring returns everything.
func TestTraceFlightRingSmall(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", r.Cap())
	}
	r = NewRing(100) // rounds up to 128
	if r.Cap() != 128 {
		t.Fatalf("Cap = %d, want 128", r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Record(Event{Step: int32(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("retained %d, want all 5 of an unfilled ring", len(evs))
	}
	var nilRing *Ring
	nilRing.Record(Event{})
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 || nilRing.Cap() != 0 {
		t.Fatal("nil ring must be inert")
	}
}

// TestTraceFlightRingConcurrentWriters is the wraparound property test
// under contention: several writers hammer one ring while a reader
// snapshots continuously. Every snapshot — mid-flight and final — must
// contain each writer's events as a strictly increasing subsequence
// (the ring never reorders or duplicates), every event's checksum
// C = A<<32 | B must hold (no slot mixes the fields of two events),
// and the quiescent snapshot must account for every slot: when a
// lapped writer and the newer ticket on its slot overlap, the newer
// event survives. Run under -race (the conformance tier does) this
// also proves the slot words publish without data races.
func TestTraceFlightRingConcurrentWriters(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
	)
	r := NewRing(256)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	check := func(evs []Event) {
		last := make(map[int64]int64, writers)
		for _, e := range evs {
			if e.C != e.A<<32|e.B {
				t.Errorf("torn slot: %+v carries fields of two events", e)
				return
			}
			if prev, ok := last[e.A]; ok && e.B <= prev {
				t.Errorf("writer %d: event %d arrived after %d (order lost)", e.A, e.B, prev)
				return
			}
			last[e.A] = e.B
		}
	}
	// Concurrent reader: torn or lapped slots must be skipped, never
	// surfaced out of order.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			check(r.Snapshot())
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: KindPair, A: int64(w), B: int64(i), C: int64(w)<<32 | int64(i)})
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := r.Total(); got != uint64(writers*perWriter) {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	evs := r.Snapshot()
	if len(evs) != r.Cap() {
		t.Fatalf("quiescent snapshot retained %d events, want the full ring of %d", len(evs), r.Cap())
	}
	check(evs)
}

// TestTraceFlightRecorderMode: a flight-only recorder records to the
// rings and the metrics but keeps the unbounded event slices empty,
// while a full recorder feeds both.
func TestTraceFlightRecorderMode(t *testing.T) {
	fr := NewFlight(2)
	b := fr.Rank(0)
	b.Compute(0, 0, 100, 1)
	b.SyncSpan(0, 100, 200, 1, 1, 0)
	b.Heartbeat(7, 3)
	if evs := fr.Events(); len(evs) != 0 {
		t.Fatalf("flight recorder leaked %d events into the slices", len(evs))
	}
	ring, total := b.RingSnapshot()
	if total != 3 || len(ring) != 3 {
		t.Fatalf("ring holds %d/%d events, want 3/3", len(ring), total)
	}
	if ring[2].Kind != KindHeartbeat || ring[2].A != 7 || ring[2].B != 3 {
		t.Fatalf("heartbeat event mangled: %+v", ring[2])
	}
	m := fr.Metrics().Snapshot()
	if m.Ranks[0].Steps != 1 || m.Ranks[0].Heartbeats != 1 {
		t.Fatalf("metrics not fed in flight mode: %+v", m)
	}
	if r0 := m.Ranks[0]; r0.LastHeartbeatSeq != 7 || r0.LastHeartbeatEpoch != 3 {
		t.Fatalf("heartbeat gauges = (%d, %d), want (7, 3)", r0.LastHeartbeatSeq, r0.LastHeartbeatEpoch)
	}

	full := New(2)
	fb := full.Rank(1)
	fb.Compute(0, 0, 100, 1)
	fb.HeartbeatRTT(1, 2_000_000)
	if evs := full.Events(); len(evs) != 1 {
		t.Fatalf("full recorder has %d slice events, want 1 (heartbeats are ring-only)", len(evs))
	}
	ring, total = fb.RingSnapshot()
	if total != 2 || len(ring) != 2 {
		t.Fatalf("full recorder's ring holds %d/%d, want 2/2", len(ring), total)
	}
	if got := full.Metrics().Snapshot().HeartbeatRTT; got.Count != 1 {
		t.Fatalf("RTT histogram count = %d, want 1", got.Count)
	}
}

// TestTraceHistObserve pins the bucket edges: a sample equal to a
// bound lands in that bound's bucket (le is inclusive), one past it in
// the next, and everything beyond the ladder in the overflow bucket.
func TestTraceHistObserve(t *testing.T) {
	h := newHist([]int64{10, 100}, 1)
	for _, v := range []int64{10, 11, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 1121 {
		t.Fatalf("count/sum = %d/%g, want 4/1121", s.Count, s.Sum)
	}
	want := []int64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	var nilH *Hist
	nilH.Observe(5) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil hist must be inert")
	}
}
