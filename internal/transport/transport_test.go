package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// allTransports returns one instance of every registered transport,
// built through the registry, so a newly registered transport joins
// every matrix test automatically.
func allTransports() []Transport {
	var trs []Transport
	for _, name := range Names() {
		tr, err := New(name)
		if err != nil {
			panic(fmt.Sprintf("allTransports: New(%q): %v", name, err))
		}
		trs = append(trs, tr)
	}
	return trs
}

// runProcs drives one goroutine per endpoint and waits for completion.
func runProcs(t *testing.T, tr Transport, p int, fn func(ep Endpoint)) {
	t.Helper()
	eps, err := tr.Open(p)
	if err != nil {
		t.Fatalf("%s: Open(%d): %v", tr.Name(), p, err)
	}
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := eps[i]
			ep.Begin()
			fn(ep)
			if err := ep.Close(); err != nil {
				t.Errorf("%s: Close(%d): %v", tr.Name(), i, err)
			}
		}()
	}
	wg.Wait()
}

func msgFor(src, dst, step, k int) []byte {
	return []byte(fmt.Sprintf("m:%d->%d@%d#%d", src, dst, step, k))
}

// drain collects every remaining frame view of an Inbox, preserving
// iteration order. The views alias transport buffers and are valid only
// until the endpoint's next Sync, so tests assert on them immediately.
func drain(in *Inbox) [][]byte {
	var msgs [][]byte
	for {
		m, ok := in.Next()
		if !ok {
			return msgs
		}
		msgs = append(msgs, m)
	}
}

// TestTotalExchange checks the core BSP delivery contract on every
// transport: over several supersteps, every process sends a distinct
// message to every process (including itself) and must receive exactly
// the messages addressed to it in the superstep that just ended.
func TestTotalExchange(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			for _, p := range []int{1, 2, 3, 4, 5, 8} {
				const steps = 4
				runProcs(t, tr, p, func(ep Endpoint) {
					id := ep.ID()
					for s := 0; s < steps; s++ {
						for dst := 0; dst < p; dst++ {
							ep.Send(dst, msgFor(id, dst, s, 0))
						}
						in, err := ep.Sync()
						if err != nil {
							t.Errorf("p=%d proc %d step %d: Sync: %v", p, id, s, err)
							return
						}
						inbox := drain(in)
						if len(inbox) != p {
							t.Errorf("p=%d proc %d step %d: got %d messages, want %d", p, id, s, len(inbox), p)
							return
						}
						got := make([]string, len(inbox))
						for i, m := range inbox {
							got[i] = string(m)
						}
						sort.Strings(got)
						want := make([]string, p)
						for src := 0; src < p; src++ {
							want[src] = string(msgFor(src, id, s, 0))
						}
						sort.Strings(want)
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("p=%d proc %d step %d: inbox[%d] = %q, want %q", p, id, s, i, got[i], want[i])
							}
						}
					}
				})
			}
		})
	}
}

// TestNoEarlyDelivery verifies that a message sent in superstep s is not
// visible before the Sync ending superstep s, and not duplicated after.
func TestNoEarlyDelivery(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			const p = 4
			runProcs(t, tr, p, func(ep Endpoint) {
				id := ep.ID()
				// Superstep 0: only process 0 sends.
				if id == 0 {
					for dst := 0; dst < p; dst++ {
						ep.Send(dst, []byte{byte(dst)})
					}
				}
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("proc %d: %v", id, err)
					return
				}
				inbox := drain(in)
				if len(inbox) != 1 || inbox[0][0] != byte(id) {
					t.Errorf("proc %d: superstep 0 inbox = %v, want [[%d]]", id, inbox, id)
				}
				// Superstep 1: nobody sends; inboxes must be empty.
				in, err = ep.Sync()
				if err != nil {
					t.Errorf("proc %d: %v", id, err)
					return
				}
				if in.Pending() != 0 {
					t.Errorf("proc %d: superstep 1 has %d pending messages, want none", id, in.Pending())
				}
			})
		})
	}
}

// TestSkewedVolumes exercises highly unbalanced h-relations: process 0
// broadcasts many messages while the others send single replies.
func TestSkewedVolumes(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			const p, n = 4, 300
			runProcs(t, tr, p, func(ep Endpoint) {
				id := ep.ID()
				if id == 0 {
					for dst := 1; dst < p; dst++ {
						for k := 0; k < n; k++ {
							ep.Send(dst, msgFor(0, dst, 0, k))
						}
					}
				} else {
					ep.Send(0, msgFor(id, 0, 0, 0))
				}
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("proc %d: %v", id, err)
					return
				}
				want := n
				if id == 0 {
					want = p - 1
				}
				if in.Pending() != want {
					t.Errorf("proc %d: got %d messages, want %d", id, in.Pending(), want)
				}
			})
		})
	}
}

// TestLargeMessages checks variable-length payload integrity (the TCP
// framing path in particular).
func TestLargeMessages(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			const p = 3
			sizes := []int{0, 1, 15, 16, 17, 4096, 1 << 17}
			runProcs(t, tr, p, func(ep Endpoint) {
				id := ep.ID()
				rng := rand.New(rand.NewSource(int64(id)))
				payloads := make([][]byte, len(sizes))
				for i, n := range sizes {
					payloads[i] = make([]byte, n)
					rng.Read(payloads[i])
					ep.Send((id+1)%p, payloads[i])
				}
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("proc %d: %v", id, err)
					return
				}
				inbox := drain(in)
				src := (id + p - 1) % p
				srcRng := rand.New(rand.NewSource(int64(src)))
				want := make(map[string]int)
				for _, n := range sizes {
					b := make([]byte, n)
					srcRng.Read(b)
					want[string(b)]++
				}
				if len(inbox) != len(sizes) {
					t.Errorf("proc %d: got %d messages, want %d", id, len(inbox), len(sizes))
					return
				}
				for _, m := range inbox {
					if want[string(m)] == 0 {
						t.Errorf("proc %d: unexpected payload of %d bytes", id, len(m))
					} else {
						want[string(m)]--
					}
				}
			})
		})
	}
}

// TestSendBufferOwnership pins the copy-in contract: Send combines the
// message into the transport's batch by copy, so the caller may scribble
// over (or reuse) its buffer immediately after Send without corrupting
// delivery.
func TestSendBufferOwnership(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			runProcs(t, tr, 2, func(ep Endpoint) {
				id := ep.ID()
				msg := []byte{byte(id), 42}
				ep.Send(1-id, msg)
				msg[0], msg[1] = 0xEE, 0xEE // caller keeps msg: deface it
				ep.Send(1-id, msg)          // and reuse it for a second message
				in, err := ep.Sync()
				if err != nil {
					t.Errorf("proc %d: %v", id, err)
					return
				}
				inbox := drain(in)
				if len(inbox) != 2 ||
					!bytes.Equal(inbox[0], []byte{byte(1 - id), 42}) ||
					!bytes.Equal(inbox[1], []byte{0xEE, 0xEE}) {
					t.Errorf("proc %d: inbox = %v", id, inbox)
				}
			})
		})
	}
}

// TestSimEarlyExit: sim tolerates processes leaving early; the rest keep
// synchronizing.
func TestSimEarlyExit(t *testing.T) {
	const p = 4
	runProcs(t, SimTransport{}, p, func(ep Endpoint) {
		id := ep.ID()
		steps := 1 + id // proc 0 exits after 1 superstep, proc 3 after 4
		for s := 0; s < steps; s++ {
			if _, err := ep.Sync(); err != nil {
				t.Errorf("proc %d step %d: %v", id, s, err)
				return
			}
		}
	})
}

// TestPeerExitDetected: the concurrent transports must report diverging
// superstep counts as errors rather than deadlocking.
func TestPeerExitDetected(t *testing.T) {
	for _, tr := range []Transport{ShmTransport{}, XchgTransport{}, TCPTransport{}} {
		t.Run(tr.Name(), func(t *testing.T) {
			var mu sync.Mutex
			var errs []error
			runProcs(t, tr, 2, func(ep Endpoint) {
				steps := 1 + ep.ID() // proc 1 tries one more superstep
				for s := 0; s < steps; s++ {
					if _, err := ep.Sync(); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
				}
			})
			if len(errs) != 1 {
				t.Fatalf("want exactly one peer-exit error, got %v", errs)
			}
			if !strings.Contains(errs[0].Error(), "exited") {
				t.Errorf("error should mention peer exit, got %v", errs[0])
			}
		})
	}
}

// TestAbortUnblocksPeers: Abort must release processes stuck in Sync.
func TestAbortUnblocksPeers(t *testing.T) {
	for _, tr := range allTransports() {
		t.Run(tr.Name(), func(t *testing.T) {
			var mu sync.Mutex
			sawErr := 0
			runProcs(t, tr, 3, func(ep Endpoint) {
				if ep.ID() == 0 {
					// Simulate a crash: abort without ever syncing.
					ep.Abort()
					return
				}
				if _, err := ep.Sync(); err != nil {
					mu.Lock()
					sawErr++
					mu.Unlock()
				}
			})
			if sawErr != 2 {
				t.Errorf("want 2 processes to observe the abort, got %d", sawErr)
			}
		})
	}
}

// TestOpenRejectsBadP covers the argument validation of every transport.
func TestOpenRejectsBadP(t *testing.T) {
	for _, tr := range allTransports() {
		if _, err := tr.Open(0); err == nil {
			t.Errorf("%s: Open(0) should fail", tr.Name())
		}
	}
}

// TestNewByName covers the registry.
func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		tr, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if tr.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, tr.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("New(bogus) should fail")
	}
}

// TestPerPairBatchHandoff proves the central claim of the batched
// exchange engine: however many messages a process sends to a peer in
// one superstep, it hands the peer at most ONE contiguous buffer for the
// pair. Every batching transport (and its chaos wrapper, which must not
// change how traffic is batched) therefore hands exactly steps*(p-1)
// nonempty buffers when every rank sends every other rank a burst of
// messages each superstep — and, with tracing installed, records
// exactly one Pair event per handoff carrying the batch's frame count,
// and exactly one exchange span per superstep nested in core's sync
// span, which the test stands in for around each Sync.
func TestPerPairBatchHandoff(t *testing.T) {
	const p, steps, burst = 4, 3, 20
	transports := []Transport{
		ShmTransport{},
		XchgTransport{},
		TCPTransport{},
		SimTransport{},
		ClusterTransport{},
		ChaosTransport{Base: XchgTransport{}, Plan: conformanceFaultPlan()},
		ChaosTransport{Base: SimTransport{}, Plan: conformanceFaultPlan()},
		ChaosTransport{Base: TCPTransport{}, Plan: conformanceFaultPlan()},
		ChaosTransport{Base: ClusterTransport{}, Plan: conformanceFaultPlan()},
	}
	for _, tr := range transports {
		t.Run(tr.Name(), func(t *testing.T) {
			rec := trace.New(p)
			handed := make([]int, p)
			runProcs(t, tr, p, func(ep Endpoint) {
				id := ep.ID()
				buf := rec.Rank(id)
				if ts, ok := ep.(TraceSetter); ok {
					ts.SetTrace(buf)
				} else {
					t.Errorf("%s endpoint does not implement TraceSetter", tr.Name())
				}
				sync := func(s int) (*Inbox, error) {
					start := buf.Now()
					in, err := ep.Sync()
					buf.SyncSpan(s, start, buf.Now(), 0, 0, 0)
					return in, err
				}
				for s := 0; s < steps; s++ {
					for dst := 0; dst < p; dst++ {
						if dst == id {
							continue
						}
						for k := 0; k < burst; k++ {
							ep.Send(dst, msgFor(id, dst, s, k))
						}
					}
					in, err := sync(s)
					if err != nil {
						t.Errorf("proc %d step %d: %v", id, s, err)
						return
					}
					if got := in.Frames(); got != (p-1)*burst {
						t.Errorf("proc %d step %d: %d frames, want %d", id, s, got, (p-1)*burst)
					}
				}
				// A superstep with nothing to send still exchanges (the
				// socket engine writes bare headers) but hands nothing.
				if in, err := sync(steps); err != nil || in.Frames() != 0 {
					t.Errorf("proc %d empty step: %d frames, err %v", id, in.Frames(), err)
				}
				handed[id] = ep.(interface{ handedBatches() int }).handedBatches()
			})
			for id, h := range handed {
				if h != steps*(p-1) {
					t.Errorf("proc %d handed %d nonempty buffers over %d supersteps, want %d (one per pair per superstep)",
						id, h, steps, steps*(p-1))
				}
			}
			// The trace agrees with the handoff counters: one Pair event
			// per handed batch, frame counts summing to the traffic sent.
			pairs := make([]int, p)
			frames := make([]int, p)
			bytes := make([]int, p)
			for _, e := range rec.Events() {
				if e.Kind != trace.KindPair {
					continue
				}
				pairs[e.Rank]++
				frames[e.Rank] += int(e.C)
				bytes[e.Rank] += int(e.B)
				if e.B <= 0 || e.C <= 0 || e.A == int64(e.Rank) {
					t.Errorf("malformed pair event: %+v", e)
				}
			}
			for id := range pairs {
				if pairs[id] != handed[id] {
					t.Errorf("proc %d recorded %d pair events but handed %d batches", id, pairs[id], handed[id])
				}
				if frames[id] != steps*(p-1)*burst {
					t.Errorf("proc %d pair events carry %d frames, want %d", id, frames[id], steps*(p-1)*burst)
				}
				// Bytes are the framed payload alone: the batch header the
				// socket engine keeps at the front of its buffers is wire
				// overhead, not traffic.
				want := 0
				for s := 0; s < steps; s++ {
					for dst := 0; dst < p; dst++ {
						for k := 0; k < burst && dst != id; k++ {
							want += 4 + len(msgFor(id, dst, s, k))
						}
					}
				}
				if bytes[id] != want {
					t.Errorf("proc %d pair events carry %d bytes, want %d", id, bytes[id], want)
				}
			}
			// One exchange span per rank per superstep, inside that
			// superstep's sync span.
			type key struct{ rank, step int32 }
			syncs := make(map[key]trace.Event)
			exchanges := make(map[key]int)
			for _, e := range rec.Events() {
				if e.Kind == trace.KindSync {
					syncs[key{e.Rank, e.Step}] = e
				}
			}
			for _, e := range rec.Events() {
				if e.Kind != trace.KindExchange {
					continue
				}
				k := key{e.Rank, e.Step}
				exchanges[k]++
				if sy, ok := syncs[k]; !ok || e.Start < sy.Start || e.End > sy.End {
					t.Errorf("proc %d step %d: exchange span [%d,%d] not inside a sync span %+v", e.Rank, e.Step, e.Start, e.End, sy)
				}
			}
			for id := 0; id < p; id++ {
				for s := 0; s <= steps; s++ {
					if n := exchanges[key{int32(id), int32(s)}]; n != 1 {
						t.Errorf("proc %d step %d: %d exchange spans, want 1", id, s, n)
					}
				}
			}
		})
	}
}

// TestPairRecordedOnlyWhenHanded: the Pair event and the handed count
// move together, after the link has taken the batch. Rank 0's channel to
// rank 1 is full and the group aborted, so its Sync fails without
// handing its batch over — and must leave no Pair in the trace for it.
func TestPairRecordedOnlyWhenHanded(t *testing.T) {
	eps, err := XchgTransport{}.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	e := eps[0].(*xchgEndpoint)
	e.ch[0][1] <- nil // the channel is full
	rec := trace.New(2)
	e.SetTrace(rec.Rank(0))
	e.Abort()
	e.Send(1, []byte("never handed"))
	if _, err := e.Sync(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Sync with a full channel after abort = %v, want ErrAborted", err)
	}
	pairs := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindPair {
			pairs++
		}
	}
	if h := e.handedBatches(); pairs != h || h != 0 {
		t.Errorf("rank 0 recorded %d Pair events and handed %d batches, want 0 and 0", pairs, h)
	}
	for _, ep := range eps {
		ep.Close()
	}
}

// TestQuickRandomTraffic is a property test: for random (p, superstep,
// traffic-matrix) instances, every transport delivers exactly the sent
// multiset of messages to each process each superstep.
func TestQuickRandomTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	type instance struct {
		P     uint8
		Steps uint8
		Seed  int64
	}
	for _, tr := range allTransports() {
		f := func(in instance) bool {
			p := int(in.P)%5 + 1
			steps := int(in.Steps)%3 + 1
			rng := rand.New(rand.NewSource(in.Seed))
			// counts[s][src][dst]
			counts := make([][][]int, steps)
			for s := range counts {
				counts[s] = make([][]int, p)
				for i := range counts[s] {
					counts[s][i] = make([]int, p)
					for j := range counts[s][i] {
						counts[s][i][j] = rng.Intn(4)
					}
				}
			}
			ok := true
			var mu sync.Mutex
			runProcs(t, tr, p, func(ep Endpoint) {
				id := ep.ID()
				for s := 0; s < steps; s++ {
					for dst := 0; dst < p; dst++ {
						for k := 0; k < counts[s][id][dst]; k++ {
							var b [12]byte
							binary.LittleEndian.PutUint32(b[0:], uint32(id))
							binary.LittleEndian.PutUint32(b[4:], uint32(s))
							binary.LittleEndian.PutUint32(b[8:], uint32(k))
							ep.Send(dst, b[:])
						}
					}
					in, err := ep.Sync()
					if err != nil {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
					inbox := drain(in)
					want := 0
					for src := 0; src < p; src++ {
						want += counts[s][src][id]
					}
					if len(inbox) != want {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
					seen := make(map[[3]uint32]bool)
					for _, m := range inbox {
						key := [3]uint32{
							binary.LittleEndian.Uint32(m[0:]),
							binary.LittleEndian.Uint32(m[4:]),
							binary.LittleEndian.Uint32(m[8:]),
						}
						if key[1] != uint32(s) || seen[key] {
							mu.Lock()
							ok = false
							mu.Unlock()
							return
						}
						seen[key] = true
					}
				}
			})
			return ok
		}
		cfg := &quick.Config{MaxCount: 12}
		if tr.Name() == "tcp" || tr.Name() == "cluster" {
			cfg.MaxCount = 4 // socket setup dominates; keep it quick
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
	}
}
