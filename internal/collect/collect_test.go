package collect

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

func run(t *testing.T, p int, fn func(c *core.Proc)) *core.Stats {
	t.Helper()
	st, err := core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, fn)
	if err != nil {
		t.Fatalf("Run(p=%d): %v", p, err)
	}
	return st
}

func TestBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for root := 0; root < p; root++ {
			payload := []byte(fmt.Sprintf("hello from %d", root))
			run(t, p, func(c *core.Proc) {
				got := Broadcast(c, root, payload)
				if !bytes.Equal(got, payload) {
					t.Errorf("p=%d root=%d proc %d: got %q", p, root, c.ID(), got)
				}
			})
		}
	}
}

// broadcastTwoPhase distributes data from root in two supersteps:
// scatter p equal pieces, then all-gather them. Cost: h ≈ 2·|data| per
// process, s = 2 — the classic BSP optimization of the naive broadcast
// for large payloads. It lives here, beside its test and benchmark,
// because no program needs more than Broadcast.
func broadcastTwoPhase(c *core.Proc, root int, data []byte) []byte {
	p := c.P()
	if p == 1 {
		c.Sync()
		c.Sync()
		return data
	}
	var size int
	// Phase 1: root scatters pieces; the total length travels with each
	// piece so receivers can size their reassembly buffers.
	if c.ID() == root {
		size = len(data)
		chunk := (size + p - 1) / p
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			lo := min(i*chunk, size)
			hi := min(lo+chunk, size)
			w := wire.NewWriter(16 + hi - lo)
			w.Int(size)
			w.Int(lo)
			w.Raw(data[lo:hi])
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	// Phase 2: every process forwards its piece to everyone else.
	var myPiece []byte
	var myLo int
	if c.ID() == root {
		chunk := (len(data) + p - 1) / p
		myLo = min(root*chunk, len(data))
		myPiece = data[myLo:min(myLo+chunk, len(data))]
		size = len(data)
	} else {
		msg, ok := c.Recv()
		if !ok {
			panic("collect: broadcastTwoPhase received no piece")
		}
		r := wire.NewReader(msg)
		size = r.Int()
		myLo = r.Int()
		// myPiece is reused after the phase-2 Sync, past the view's
		// validity window, so it must be copied out here.
		myPiece = clone(r.Raw(r.Remaining()))
	}
	w := wire.NewWriter(16 + len(myPiece))
	w.Int(myLo)
	w.Raw(myPiece)
	for i := 0; i < p; i++ {
		if i != c.ID() {
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	out := make([]byte, size)
	copy(out[myLo:], myPiece)
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		lo := r.Int()
		piece := r.Raw(r.Remaining())
		copy(out[lo:], piece)
	}
	return out
}

// BenchmarkBroadcastNaive and BenchmarkBroadcastTwoPhase compare the
// one-superstep broadcast with the two-phase one (DESIGN.md E2, §4
// "broadcast" as a predictable subroutine) at p = 8.
func BenchmarkBroadcastNaive(b *testing.B) { benchBroadcast(b, Broadcast) }

func BenchmarkBroadcastTwoPhase(b *testing.B) { benchBroadcast(b, broadcastTwoPhase) }

func benchBroadcast(b *testing.B, bcast func(c *core.Proc, root int, data []byte) []byte) {
	const p = 8
	for _, size := range []int{64, 4096, 65536} {
		payload := make([]byte, size)
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, func(c *core.Proc) {
					bcast(c, 0, payload)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestBroadcastTwoPhase(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abcdefg"), 100),
		bytes.Repeat([]byte{7}, 1001), // not divisible by p
	}
	for _, p := range []int{1, 2, 4, 7} {
		for _, payload := range payloads {
			run(t, p, func(c *core.Proc) {
				got := broadcastTwoPhase(c, 0, payload)
				if !bytes.Equal(got, payload) {
					t.Errorf("p=%d proc %d: got %d bytes, want %d", p, c.ID(), len(got), len(payload))
				}
			})
		}
	}
}

func TestBroadcastTwoPhaseUsesTwoSupersteps(t *testing.T) {
	st := run(t, 4, func(c *core.Proc) {
		broadcastTwoPhase(c, 0, bytes.Repeat([]byte{1}, 256))
	})
	if st.S() != 2 {
		t.Errorf("S = %d, want 2", st.S())
	}
}

func TestAllReduce(t *testing.T) {
	for _, p := range []int{1, 3, 6} {
		run(t, p, func(c *core.Proc) {
			x := float64(c.ID() + 1)
			want := float64(p*(p+1)) / 2
			all := AllReduce(c, x, SumFloat)
			if all != want {
				t.Errorf("p=%d proc %d: AllReduce = %g, want %g", p, c.ID(), all, want)
			}
			mx := AllReduce(c, x, MaxFloat)
			if mx != float64(p) {
				t.Errorf("p=%d proc %d: AllReduce max = %g, want %d", p, c.ID(), mx, p)
			}
		})
	}
}

func TestAllOr(t *testing.T) {
	run(t, 4, func(c *core.Proc) {
		if AllOr(c, false) {
			t.Errorf("proc %d: AllOr(all false) = true", c.ID())
		}
		if !AllOr(c, c.ID() == 3) {
			t.Errorf("proc %d: AllOr(one true) = false", c.ID())
		}
	})
}

func TestCollectiveCosts(t *testing.T) {
	// Broadcast is one superstep; AllReduce is one superstep; the cost
	// documentation in this package should match the measured S.
	st := run(t, 4, func(c *core.Proc) {
		Broadcast(c, 0, []byte("x"))
		AllReduce(c, 1, SumFloat)
		AllOr(c, true)
	})
	if st.S() != 3 {
		t.Errorf("S = %d, want 3 (one per collective)", st.S())
	}
}

func TestGroupTopology(t *testing.T) {
	for _, tc := range []struct{ p, fanout int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 3}, {16, 4},
	} {
		if got := GroupFanout(tc.p); got != tc.fanout {
			t.Errorf("GroupFanout(%d) = %d, want %d", tc.p, got, tc.fanout)
		}
	}
	// Every rank's leader is a leader of itself, and group members are
	// contiguous.
	for _, p := range []int{1, 2, 3, 5, 7, 8, 9} {
		b := GroupFanout(p)
		for id := 0; id < p; id++ {
			l := GroupLeader(id, b)
			if l < 0 || l > id || GroupLeader(l, b) != l {
				t.Errorf("p=%d: GroupLeader(%d, %d) = %d", p, id, b, l)
			}
			if id-l >= b {
				t.Errorf("p=%d: rank %d is %d past its leader %d (fanout %d)", p, id, id-l, l, b)
			}
		}
	}
}
