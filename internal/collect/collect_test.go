package collect

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
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
				got := BroadcastTwoPhase(c, 0, payload)
				if !bytes.Equal(got, payload) {
					t.Errorf("p=%d proc %d: got %d bytes, want %d", p, c.ID(), len(got), len(payload))
				}
			})
		}
	}
}

func TestBroadcastTwoPhaseUsesTwoSupersteps(t *testing.T) {
	st := run(t, 4, func(c *core.Proc) {
		BroadcastTwoPhase(c, 0, bytes.Repeat([]byte{1}, 256))
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
