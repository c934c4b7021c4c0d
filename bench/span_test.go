package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// A hand-built two-rank timeline: rank 0 enters the barrier at 50 and
// leaves at 100, rank 1 enters at 80 and leaves at 110. Rank 0 waited 30
// for rank 1; after the last entry the exchange took 20 and 30.
func TestFoldTwoRankTimeline(t *testing.T) {
	top := []span{
		{kind: spanOpen, step: -1, start: 0, end: 10},
		{kind: spanRun, step: -1, start: 0, end: 200},
	}
	ranks := [][]span{
		{
			{kind: spanSend, step: 0, start: 10, end: 50, n: 4, timed: 2, busy: 10, bytes: 64},
			{kind: spanSync, step: 0, start: 50, end: 100},
			{kind: spanClose, step: -1, start: 150, end: 155},
		},
		{
			{kind: spanSync, step: 0, start: 80, end: 110},
			{kind: spanClose, step: -1, start: 160, end: 170},
		},
	}
	l, err := fold(top, ranks)
	if err != nil {
		t.Fatal(err)
	}
	want := layerTimes{
		parent:    200,
		open:      10,
		close:     (5 + 10) / 2.0,
		send:      (10 * 4 / 2) / 2.0, // rank 0: 10 ns over 2 timed of 4 messages; rank 1 sent nothing
		wait:      (30 + 0) / 2.0,
		exchange:  (20 + 30) / 2.0,
		between:   ((40 + 50) + (70 + 50)) / 2.0,
		syncs:     1,
		sendMsgs:  4,
		sendBytes: 64,
	}
	if l != want {
		t.Errorf("fold = %+v\nwant   %+v", l, want)
	}
	if got := l.named(); got != 162.5 {
		t.Errorf("named = %v, want 162.5", got)
	}
}

func TestFoldRejectsUnevenSyncs(t *testing.T) {
	top := []span{{kind: spanOpen, step: -1, start: 0, end: 1}}
	ranks := [][]span{
		{{kind: spanSync, start: 2, end: 3}, {kind: spanClose, start: 4, end: 5}},
		{{kind: spanClose, start: 4, end: 5}},
	}
	if _, err := fold(top, ranks); err == nil {
		t.Error("fold accepted ranks with different Sync counts")
	}
}

// On the sim transport the decorator's spans must account for the whole
// run: the parts fold names add up to the parent span within 1 %, and
// the Send counts are exact.
func TestSpansCoverRunOnSim(t *testing.T) {
	const steps, msgs, size = 30, 3, 100
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	store := newSpanStore(ranks)
	msg := make([]byte, size)
	s, err := measure(transport.SimTransport{}, store, func(tr transport.Transport) (*core.Stats, error) {
		return core.Run(core.Config{P: ranks, Transport: tr}, func(c *core.Proc) {
			for step := 0; step < steps; step++ {
				spin(200 * time.Microsecond)
				for k := 0; k < msgs; k++ {
					c.Send((c.ID()+1)%c.P(), msg)
				}
				c.Sync()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := fold(store.top, store.ranks)
	if err != nil {
		t.Fatal(err)
	}
	if l.parent != float64(s.wall) {
		t.Errorf("parent span %v, measured wall %v", l.parent, s.wall)
	}
	if gap := math.Abs(l.parent-l.named()) / l.parent; gap > 0.01 {
		t.Errorf("named parts sum to %.0f ns of a %.0f ns run: %.2f%% unaccounted", l.named(), l.parent, 100*gap)
	}
	if l.syncs != steps || l.sendMsgs != ranks*steps*msgs || l.sendBytes != ranks*steps*msgs*size {
		t.Errorf("syncs=%d msgs=%d bytes=%d, want %d, %d, %d", l.syncs, l.sendMsgs, l.sendBytes, steps, ranks*steps*msgs, ranks*steps*msgs*size)
	}
	if work := float64(s.work); l.send <= 0 || l.send > work || l.between < work {
		t.Errorf("send %.0f ns, work %.0f ns, between %.0f ns: want 0 < send ≤ work ≤ between", l.send, work, l.between)
	}
}

// A steady-state run records its spans into capacity left by the run
// before: the decorator's own calls do not allocate.
func TestSpanEndpointDoesNotAllocate(t *testing.T) {
	msg := make([]byte, 16)
	allocs := func(tr transport.Transport, begin func()) float64 {
		eps, err := tr.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		ep := eps[0]
		defer ep.Close()
		ep.Begin()
		superstep := func() {
			begin()
			for k := 0; k < 40; k++ {
				ep.Send(0, msg)
			}
			if _, err := ep.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		superstep() // grows the batch buffers and the span slices
		return testing.AllocsPerRun(50, superstep)
	}
	store := newSpanStore(1)
	plain := allocs(transport.SimTransport{}, func() {})
	decorated := allocs(spanTransport{base: transport.SimTransport{}, store: store}, store.begin)
	if decorated > plain {
		t.Errorf("decorated superstep allocates %.1f times, undecorated %.1f", decorated, plain)
	}
}
