package transport

// The conformance suite pins the delivery contract every transport must
// honor — "a packet sent in superstep i is available after the barrier
// that ends superstep i" — plus the failure-mode contract (peer exit,
// abort propagation) and the memory contract (frame views are
// non-aliasing, mutable within their window, and valid until the
// receiver's next Sync recycles the batch buffers). It runs one shared
// table against all four base transports AND chaos-wrapped variants,
// whose injected delays and stalls must never change any observable
// outcome.
//
// Delivery order is part of the contract: ascending source rank, then
// send order within a source, with self-sends in the sender's own slot
// (TestConformanceDeliveryOrder). The other checks compare multisets so
// that each one fails for its own reason only.
//
// Fault plans are kept short (sub-millisecond delays/stalls) so the
// whole suite stays fast under -race; see Makefile `conformance`.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

type conformanceCase struct {
	name string
	tr   Transport
	// earlyExitErr: the transport reports diverging superstep counts
	// as errors (sim instead lets survivors keep synchronizing).
	earlyExitErr bool
}

// conformanceFaultPlan is the shortened plan used for chaos-wrapped
// conformance runs: frequent but tiny faults.
func conformanceFaultPlan() FaultPlan {
	return FaultPlan{
		Seed:      7,
		DelayRate: 0.1,
		MaxDelay:  200 * time.Microsecond,
		StallRate: 0.05,
		Stall:     time.Millisecond,
	}
}

// conformanceCases builds the matrix from the registry: every
// registered transport runs the suite clean AND chaos-wrapped, so a
// newly registered transport — the cluster, with its out-of-process
// membership — inherits the whole contract the day it is registered.
// The chaos-wrapped rows run the delay/stall plan; sim is the only
// transport that tolerates early finishers (its barrier is a scheduler,
// not a peer exchange).
func conformanceCases() []conformanceCase {
	var cases []conformanceCase
	for _, name := range Names() {
		tr, err := New(name)
		if err != nil {
			panic(fmt.Sprintf("conformanceCases: New(%q): %v", name, err))
		}
		cases = append(cases, conformanceCase{name, tr, name != "sim"})
	}
	for _, name := range Names() {
		base, err := New(name)
		if err != nil {
			panic(fmt.Sprintf("conformanceCases: New(%q): %v", name, err))
		}
		cases = append(cases, conformanceCase{"chaos-" + name, ChaosTransport{Base: base, Plan: conformanceFaultPlan()}, name != "sim"})
	}
	return cases
}

// TestConformanceDeliveryAfterBarrier is the core contract: in every
// superstep each rank sends rank+1 tagged messages to every rank
// (including itself — self-send must work), and after the Sync that
// ends the superstep each inbox holds exactly that superstep's multiset
// — nothing early, nothing late, nothing lost or duplicated, any order.
func TestConformanceDeliveryAfterBarrier(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 4} {
				const steps = 3
				runProcs(t, tc.tr, p, func(ep Endpoint) {
					id := ep.ID()
					for s := 0; s < steps; s++ {
						for dst := 0; dst < p; dst++ {
							for k := 0; k <= id; k++ {
								ep.Send(dst, msgFor(id, dst, s, k))
							}
						}
						in, err := ep.Sync()
						if err != nil {
							t.Errorf("p=%d rank %d step %d: Sync: %v", p, id, s, err)
							return
						}
						inbox := drain(in)
						want := make(map[string]int)
						total := 0
						for src := 0; src < p; src++ {
							for k := 0; k <= src; k++ {
								want[string(msgFor(src, id, s, k))]++
								total++
							}
						}
						if len(inbox) != total {
							t.Errorf("p=%d rank %d step %d: %d messages, want %d", p, id, s, len(inbox), total)
							return
						}
						for _, m := range inbox {
							if want[string(m)] == 0 {
								t.Errorf("p=%d rank %d step %d: unexpected message %q", p, id, s, m)
							} else {
								want[string(m)]--
							}
						}
					}
				})
			}
		})
	}
}

// TestConformanceDeliveryOrder pins the ordering contract: every rank
// sends three tagged messages to every rank, itself included, and each
// inbox must hold them by ascending source rank, then in send order —
// the self-sends in the receiver's own slot, not first or last.
func TestConformanceDeliveryOrder(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			const p, burst = 4, 3
			runProcs(t, tc.tr, p, func(ep Endpoint) {
				id := ep.ID()
				for s := 0; s < 2; s++ {
					for k := 0; k < burst; k++ {
						for dst := 0; dst < p; dst++ {
							ep.Send(dst, []byte{byte(id), byte(s), byte(k)})
						}
					}
					in, err := ep.Sync()
					if err != nil {
						t.Errorf("rank %d step %d: %v", id, s, err)
						return
					}
					inbox := drain(in)
					if len(inbox) != p*burst {
						t.Errorf("rank %d step %d: %d messages, want %d", id, s, len(inbox), p*burst)
						return
					}
					for i, m := range inbox {
						if want := []byte{byte(i / burst), byte(s), byte(i % burst)}; !bytes.Equal(m, want) {
							t.Errorf("rank %d step %d: inbox[%d] = (src %d, step %d, k %d), want (%d, %d, %d)",
								id, s, i, m[0], m[1], m[2], want[0], want[1], want[2])
						}
					}
				}
			})
		})
	}
}

// TestConformanceSelfSend isolates the self-delivery path: only
// messages to self, which must round-trip through the barrier like any
// other traffic.
func TestConformanceSelfSend(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			runProcs(t, tc.tr, 3, func(ep Endpoint) {
				id := ep.ID()
				ep.Send(id, []byte{byte(id), 0xAB})
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("rank %d: %v", id, err)
					return
				}
				inbox := drain(in)
				if len(inbox) != 1 || !bytes.Equal(inbox[0], []byte{byte(id), 0xAB}) {
					t.Errorf("rank %d: self-send inbox = %v", id, inbox)
				}
			})
		})
	}
}

// TestConformanceEmptySuperstep: supersteps with no traffic still
// synchronize and deliver empty inboxes.
func TestConformanceEmptySuperstep(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			runProcs(t, tc.tr, 4, func(ep Endpoint) {
				for s := 0; s < 3; s++ {
					in, err := ep.Sync()
					if err != nil {
						t.Errorf("rank %d step %d: %v", ep.ID(), s, err)
						return
					}
					if in.Pending() != 0 {
						t.Errorf("rank %d step %d: %d pending messages, want none", ep.ID(), s, in.Pending())
					}
				}
			})
		})
	}
}

// TestConformanceEarlyFinish pins the early-exit behavior: rank 0 stops
// after one superstep while the others attempt three. Sim lets the
// survivors keep synchronizing; the concurrent transports must report
// the divergence as an error on some survivor — never deadlock, never
// deliver garbage.
func TestConformanceEarlyFinish(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var errs []error
			runProcs(t, tc.tr, 3, func(ep Endpoint) {
				steps := 3
				if ep.ID() == 0 {
					steps = 1
				}
				for s := 0; s < steps; s++ {
					if _, err := ep.Sync(); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
				}
			})
			if !tc.earlyExitErr {
				if len(errs) != 0 {
					t.Fatalf("sim must tolerate early finishers, got %v", errs)
				}
				return
			}
			if len(errs) == 0 {
				t.Fatal("no survivor reported the diverging superstep counts")
			}
			for _, err := range errs {
				if !strings.Contains(err.Error(), "exited") {
					t.Errorf("error should name the peer exit, got %v", err)
				}
			}
		})
	}
}

// TestConformanceAbortPropagation: an abort must unblock and fail every
// peer's Sync with ErrAborted.
func TestConformanceAbortPropagation(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			aborts := 0
			runProcs(t, tc.tr, 3, func(ep Endpoint) {
				if ep.ID() == 0 {
					ep.Abort()
					return
				}
				if _, err := ep.Sync(); errors.Is(err, ErrAborted) {
					mu.Lock()
					aborts++
					mu.Unlock()
				} else {
					t.Errorf("rank %d: Sync after abort = %v, want ErrAborted", ep.ID(), err)
				}
			})
			if aborts != 2 {
				t.Errorf("%d ranks observed ErrAborted, want 2", aborts)
			}
		})
	}
}

// TestConformanceChaosAbortPlan drives the FaultPlan's forced
// mid-superstep abort: the targeted rank's Sync fails with the injected
// error and both peers observe ErrAborted.
func TestConformanceChaosAbortPlan(t *testing.T) {
	for _, base := range []Transport{ShmTransport{}, TCPTransport{}} {
		t.Run("chaos-"+base.Name(), func(t *testing.T) {
			plan := FaultPlan{Seed: 3, AbortRank: 1, AbortStep: 2}
			tr := ChaosTransport{Base: base, Plan: plan}
			var mu sync.Mutex
			injected, aborted := 0, 0
			runProcs(t, tr, 3, func(ep Endpoint) {
				for s := 0; s < 3; s++ {
					if _, err := ep.Sync(); err != nil {
						mu.Lock()
						if strings.Contains(err.Error(), "injected abort") {
							injected++
						} else if errors.Is(err, ErrAborted) {
							aborted++
						} else {
							t.Errorf("rank %d: unexpected error %v", ep.ID(), err)
						}
						mu.Unlock()
						return
					}
				}
			})
			if injected != 1 || aborted != 2 {
				t.Errorf("injected=%d aborted=%d, want 1 and 2", injected, aborted)
			}
		})
	}
}

// TestConformanceSliceOwnership: within its validity window a frame
// view may be mutated freely — frames never overlap, so defacing one
// superstep's views must not corrupt the same superstep's other frames
// or the next superstep's delivery.
func TestConformanceSliceOwnership(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			const p = 2
			runProcs(t, tc.tr, p, func(ep Endpoint) {
				id := ep.ID()
				for s := 0; s < 3; s++ {
					ep.Send(1-id, msgFor(id, 1-id, s, 0))
					ep.Send(1-id, msgFor(id, 1-id, s, 1))
					in, err := ep.Sync()
					if err != nil {
						t.Errorf("rank %d step %d: %v", id, s, err)
						return
					}
					first, ok := in.Next()
					if want := msgFor(1-id, id, s, 0); !ok || !bytes.Equal(first, want) {
						t.Errorf("rank %d step %d: first view = %q, want %q", id, s, first, want)
						return
					}
					// Deface the consumed view; the sibling frame in the
					// same batch must be untouched.
					for i := range first {
						first[i] = 0xDD
					}
					second, ok := in.Next()
					if want := msgFor(1-id, id, s, 1); !ok || !bytes.Equal(second, want) {
						t.Errorf("rank %d step %d: second view after mutation = %q, want %q", id, s, second, want)
						return
					}
				}
			})
		})
	}
}

// TestConformanceSliceAliasing: the frame views of one superstep never
// alias each other. Every rank fills each of its views with a distinct
// pattern, then re-reads all of them: each view must still hold its own
// pattern, proving no two views share bytes (and that view mutation
// cannot corrupt the framing walked by the iterator).
func TestConformanceSliceAliasing(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			const p, burst = 3, 5
			runProcs(t, tc.tr, p, func(ep Endpoint) {
				id := ep.ID()
				for dst := 0; dst < p; dst++ {
					for k := 0; k < burst; k++ {
						ep.Send(dst, msgFor(id, dst, 0, k))
					}
				}
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("rank %d: %v", id, err)
					return
				}
				views := drain(in)
				if len(views) != p*burst {
					t.Errorf("rank %d: %d views, want %d", id, len(views), p*burst)
					return
				}
				for i, v := range views {
					for j := range v {
						v[j] = byte(i)
					}
				}
				for i, v := range views {
					for j, b := range v {
						if b != byte(i) {
							t.Errorf("rank %d: view %d byte %d = %d after filling views with their indices: views alias", id, i, j, b)
							return
						}
					}
				}
			})
		})
	}
}

// TestConformanceBufferReuseAfterSync pins the release contract: views
// from superstep s stay intact until the receiver's NEXT Sync — even
// while superstep s+1's heavy traffic is in flight, which forces the
// pool (and shm's parity blocks) to hand out fresh or recycled buffers.
// A transport that recycles a buffer before its owner's next Sync will
// corrupt the stashed views here.
func TestConformanceBufferReuseAfterSync(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			const p, burst, steps = 3, 40, 4
			runProcs(t, tc.tr, p, func(ep Endpoint) {
				id := ep.ID()
				var stash [][]byte // views from the previous Sync
				var want [][]byte  // their expected contents (copies)
				for s := 0; s < steps; s++ {
					for dst := 0; dst < p; dst++ {
						for k := 0; k < burst; k++ {
							ep.Send(dst, msgFor(id, dst, s, k))
						}
					}
					// Before entering Sync (which invalidates them),
					// verify the previous superstep's views survived the
					// current superstep's sends.
					for i, v := range stash {
						if !bytes.Equal(v, want[i]) {
							t.Errorf("rank %d step %d: view %d decayed to %q, want %q (buffer recycled too early)", id, s, i, v, want[i])
							return
						}
					}
					in, err := ep.Sync()
					if err != nil {
						t.Errorf("rank %d step %d: %v", id, s, err)
						return
					}
					stash = drain(in)
					want = want[:0]
					for _, v := range stash {
						want = append(want, append([]byte(nil), v...))
					}
				}
			})
		})
	}
}

// TestConformanceStageDeadline pins the socket links' silent-peer
// bound: a peer that never reaches its exchange fails the waiting
// rank's Sync after one stage deadline d — not a multiple of it — with
// a timeout error naming the pair and superstep, and the silent peer
// can still close cleanly afterwards.
func TestConformanceStageDeadline(t *testing.T) {
	const d = 300 * time.Millisecond
	for _, tr := range []Transport{
		TCPTransport{stageTimeout: d},
		ClusterTransport{stageTimeout: d},
	} {
		t.Run(tr.Name(), func(t *testing.T) {
			failed := make(chan struct{})
			runProcs(t, tr, 2, func(ep Endpoint) {
				if ep.ID() == 1 {
					<-failed // silent: never Syncs superstep 1
					return
				}
				defer close(failed)
				ep.Send(1, []byte("x"))
				start := time.Now()
				_, err := ep.Sync()
				took := time.Since(start)
				if err == nil {
					t.Error("Sync with a silent peer succeeded")
					return
				}
				if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "exchanging with 1 in superstep 1") {
					t.Errorf("Sync error = %v, want a deadline error naming the pair and superstep", err)
				}
				if took < d || took >= 2*d {
					t.Errorf("Sync failed after %v, want within [%v, %v)", took, d, 2*d)
				}
			})
		})
	}
}

// TestConformanceChaosNameAndRegistry covers the decorator's
// plumbing: Name composition, the chaos: registry prefix, and plan
// parsing round-trips.
func TestConformanceChaosNameAndRegistry(t *testing.T) {
	tr, err := New("chaos:tcp")
	if err != nil {
		t.Fatalf("New(chaos:tcp): %v", err)
	}
	if tr.Name() != "chaos:tcp" {
		t.Errorf("Name() = %q, want chaos:tcp", tr.Name())
	}
	if _, err := New("chaos:bogus"); err == nil {
		t.Error("New(chaos:bogus) should fail")
	}
	pl, err := ParseFaultPlan("seed=42,delay=0.5,maxdelay=3ms,stall=0.25,stallfor=7ms,abort=2@4,ranks=0+2,steps=2-5")
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	want := FaultPlan{
		Seed: 42, DelayRate: 0.5, MaxDelay: 3 * time.Millisecond,
		StallRate: 0.25, Stall: 7 * time.Millisecond,
		AbortRank: 2, AbortStep: 4, Ranks: []int{0, 2}, FromStep: 2, ToStep: 5,
	}
	if fmt.Sprint(pl) != fmt.Sprint(want) {
		t.Errorf("ParseFaultPlan = %+v, want %+v", pl, want)
	}
	if !pl.targets(0) || pl.targets(1) || !pl.targets(2) {
		t.Errorf("targets: ranks filter broken: %+v", pl.Ranks)
	}
	if pl.inWindow(1) || !pl.inWindow(2) || !pl.inWindow(5) || pl.inWindow(6) {
		t.Error("inWindow: step filter broken")
	}
	for _, bad := range []string{"delay", "wat=1", "abort=1", "ranks=x", "steps=3", "delay=zz", "connerr=0.1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) should fail", bad)
		}
	}
}
