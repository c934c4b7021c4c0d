package transport

// Tests for the socket engine's two-phase exchange (tcp.go): batches of
// at most eagerLimit bytes are posted at Sync entry (Appendix B.2), the
// rest run the staged pairing schedule (B.3). The property test mixes
// both kinds on every ordered pair with ranks a superstep apart; the
// write-count test pins "one Write per peer per superstep, all posts
// before the first Read when everything is small"; the corruption test
// pins the error a bad body produces; the alloc gate pins recycling at
// zero allocations.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// mixSizes are the batch body sizes the mix draws from: nothing, the
// largest eager batch, the smallest staged one, and a batch far beyond
// any socket buffer's worth of slack.
var mixSizes = [...]int{0, eagerLimit, eagerLimit + 1, 256 << 10}

// mixHdr is the [src][round][seq] tag at the front of every mix frame;
// mixFrames is how many frames make up one nonempty batch.
const (
	mixHdr    = 12
	mixFrames = 3
)

// mixSize is the seeded body size src sends dst in round: every rank
// evaluates the same function, so receivers know what to expect. The
// 256 KiB class is drawn one time in sixteen (the others evenly), which
// keeps the suite's volume affordable under -race while every superstep
// at p >= 4 still carries several staged batches among the eager ones.
func mixSize(seed int64, round, src, dst int) int {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(round)*0xBF58476D1CE4E5B9 + uint64(src)*0x94D049BB133111EB + uint64(dst)*0xD6E8FEB86659FD93
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	if h%16 == 0 {
		return mixSizes[len(mixSizes)-1]
	}
	return mixSizes[(h>>4)%uint64(len(mixSizes)-1)]
}

// sendMix queues the batch of exactly size body bytes for dst: two tag
// frames and a filler frame that brings the framed length to size.
func sendMix(ep Endpoint, fill []byte, round, dst, size int) {
	if size == 0 {
		return
	}
	const frameHdr = 4 // wire's per-frame length prefix
	lens := [mixFrames]int{mixHdr, mixHdr, size - mixFrames*frameHdr - 2*mixHdr}
	for seq, n := range lens {
		msg := fill[:n]
		binary.LittleEndian.PutUint32(msg[0:], uint32(ep.ID()))
		binary.LittleEndian.PutUint32(msg[4:], uint32(round))
		binary.LittleEndian.PutUint32(msg[8:], uint32(seq))
		ep.Send(dst, msg)
	}
}

// checkMix asserts the inbox of round holds exactly the seeded mix:
// every frame once, in per-source order, tagged with this round, and
// adding up to the batch size its source chose.
func checkMix(t *testing.T, in *Inbox, seed int64, round, p, id int) {
	t.Helper()
	next := make([]int, p)  // next expected seq per source
	bytes := make([]int, p) // framed bytes seen per source
	for {
		m, ok := in.Next()
		if !ok {
			break
		}
		if len(m) < mixHdr {
			t.Errorf("rank %d round %d: %d-byte frame", id, round, len(m))
			return
		}
		src := int(binary.LittleEndian.Uint32(m[0:]))
		r := int(binary.LittleEndian.Uint32(m[4:]))
		seq := int(binary.LittleEndian.Uint32(m[8:]))
		if src >= p || r != round || seq != next[src] {
			t.Errorf("rank %d round %d: frame tagged src %d round %d seq %d out of order", id, round, src, r, seq)
			return
		}
		next[src]++
		bytes[src] += 4 + len(m)
	}
	for src := 0; src < p; src++ {
		want := mixSize(seed, round, src, id)
		wantFrames := 0
		if want > 0 {
			wantFrames = mixFrames
		}
		if next[src] != wantFrames || bytes[src] != want {
			t.Errorf("rank %d round %d: %d frames / %d bytes from %d, want %d / %d",
				id, round, next[src], bytes[src], src, wantFrames, want)
		}
	}
}

// runMix drives rounds supersteps of the seeded size mix, with random
// short sleeps before Sync so ranks drift a superstep apart.
func runMix(t *testing.T, tr Transport, p, rounds int, seed int64) {
	t.Helper()
	runProcs(t, tr, p, func(ep Endpoint) {
		id := ep.ID()
		rng := rand.New(rand.NewSource(seed + int64(id)))
		fill := make([]byte, mixSizes[len(mixSizes)-1])
		for round := 0; round < rounds; round++ {
			for dst := 0; dst < p; dst++ {
				sendMix(ep, fill, round, dst, mixSize(seed, round, id, dst))
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
			in, err := ep.Sync()
			if err != nil {
				t.Errorf("rank %d round %d: %v", id, round, err)
				ep.Abort()
				return
			}
			checkMix(t, in, seed, round, p, id)
		}
	})
}

// TestConformanceEagerStagedMix is the schedule/deadlock property test:
// each ordered pair independently sends nothing, a batch of exactly
// eagerLimit, one byte more, or 256 KiB, so eager and staged batches
// share connections and supersteps in every combination. A stall fails
// within the 2 s stage deadline instead of hanging.
func TestConformanceEagerStagedMix(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const rounds = 200
	const stage = 2 * time.Second
	for _, tr := range []Transport{
		TCPTransport{stageTimeout: stage},
		ClusterTransport{stageTimeout: stage},
	} {
		for _, p := range []int{2, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", tr.Name(), p), func(t *testing.T) {
				runMix(t, tr, p, rounds, int64(p))
			})
		}
	}
}

// connEvent is one Read or Write call on a data connection, or (op 0)
// the boundary the test inserts before each Sync.
type connEvent struct {
	op   byte // 'R', 'W', or 0
	peer int
}

// loggingConn appends every Read and Write call to its endpoint's log.
// An endpoint's connections are only touched by its own goroutine, so
// the log needs no lock.
type loggingConn struct {
	net.Conn
	peer int
	log  *[]connEvent
}

func (c *loggingConn) Read(p []byte) (int, error) {
	*c.log = append(*c.log, connEvent{'R', c.peer})
	return c.Conn.Read(p)
}

func (c *loggingConn) Write(p []byte) (int, error) {
	*c.log = append(*c.log, connEvent{'W', c.peer})
	return c.Conn.Write(p)
}

// TestTCPOneWritePerPeerPerSuperstep pins the write side of the wire:
// whatever a batch's size — empty, small or far beyond the old 64 KiB
// write buffer — it leaves in exactly one Write call, and when every
// batch of a superstep is small all p-1 posts precede the first Read.
func TestTCPOneWritePerPeerPerSuperstep(t *testing.T) {
	const p = 4
	kinds := []struct {
		name  string
		size  func(src, dst int) int
		eager bool
	}{
		{"empty", func(_, _ int) int { return 0 }, true},
		{"small", func(_, _ int) int { return eagerLimit }, true},
		{"large", func(_, _ int) int { return 256 << 10 }, false},
		{"mixed", func(src, dst int) int { return mixSizes[(src+2*dst)%len(mixSizes)] }, false},
	}
	logs := make([][]connEvent, p)
	tr := TCPTransport{wrapConn: func(local, peer int, c net.Conn) net.Conn {
		return &loggingConn{Conn: c, peer: peer, log: &logs[local]}
	}}
	runProcs(t, tr, p, func(ep Endpoint) {
		id := ep.ID()
		fill := make([]byte, 256<<10)
		for step, k := range kinds {
			for dst := 0; dst < p; dst++ {
				if dst != id {
					sendMix(ep, fill, step, dst, k.size(id, dst))
				}
			}
			logs[id] = append(logs[id], connEvent{})
			if _, err := ep.Sync(); err != nil {
				t.Errorf("rank %d %s superstep: %v", id, k.name, err)
				ep.Abort()
				return
			}
		}
	})
	for id, log := range logs {
		step := -1
		var writes [p]int
		read := false
		check := func() {
			if step < 0 {
				return
			}
			for peer, n := range writes {
				want := 1
				if peer == id {
					want = 0
				}
				if n != want {
					t.Errorf("rank %d %s superstep: %d writes to %d, want %d", id, kinds[step].name, n, peer, want)
				}
			}
		}
		for _, ev := range log {
			switch ev.op {
			case 0:
				check()
				step++
				writes, read = [p]int{}, false
			case 'R':
				read = true
			case 'W':
				writes[ev.peer]++
				if read && kinds[step].eager {
					t.Errorf("rank %d %s superstep: write to %d after a read; small batches must all be posted first", id, kinds[step].name, ev.peer)
				}
			}
		}
		check()
		if step != len(kinds)-1 {
			t.Errorf("rank %d logged %d supersteps, want %d", id, step+1, len(kinds))
		}
	}
}

// corruptingConn overwrites stream bytes [from, to) of everything read
// through it with 0xFF.
type corruptingConn struct {
	net.Conn
	off, from, to int
}

func (c *corruptingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for i := 0; i < n; i++ {
		if pos := c.off + i; pos >= c.from && pos < c.to {
			p[i] = 0xFF
		}
	}
	c.off += n
	return n, err
}

// TestTCPCorruptBatchNamesPeerAndSuperstep: received batches are
// validated exactly once, as they come off the wire, and a body whose
// framing is broken fails the Sync with an error naming the source
// peer and the superstep.
func TestTCPCorruptBatchNamesPeerAndSuperstep(t *testing.T) {
	// Rank 0's view of rank 1's stream: the first frame's length prefix
	// (right behind the batch header) reads as 4 GiB.
	tr := TCPTransport{wrapConn: func(local, peer int, c net.Conn) net.Conn {
		if local == 0 && peer == 1 {
			return &corruptingConn{Conn: c, from: batchHdrLen, to: batchHdrLen + 4}
		}
		return c
	}}
	eps, err := tr.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Begin()
			ep.Send(1-i, []byte("payload"))
			_, errs[i] = ep.Sync()
		}()
	}
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
	if errs[1] != nil {
		t.Errorf("rank 1 read an intact stream but failed: %v", errs[1])
	}
	if errs[0] == nil {
		t.Fatal("rank 0 accepted a batch with a corrupt frame header")
	}
	for _, want := range []string{"process 0 exchanging with 1 in superstep 1", "corrupt batch from peer"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("rank 0 error %q does not contain %q", errs[0], want)
		}
	}
}

// TestEngineAllocGate pins the exchange engine's steady state at zero
// allocations per all-to-all superstep (p=4, 32 packets per ordered
// pair, self included) on every registered transport: batch buffers and
// the boxes that carry them through the pool are both recycled, and
// shm's per-writer blocks are reused in place.
func TestEngineAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const p, perPair, warmup, runs = 4, 32, 8, 50
	for _, name := range Names() {
		tr, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tr.Name(), func(t *testing.T) {
			eps, err := tr.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun calls the function once to warm up, then runs
			// times; one more superstep keeps Close out of the window.
			const steps = warmup + 1 + runs + 1
			start := make(chan struct{})
			done := make(chan error, p)
			var wg sync.WaitGroup
			defer wg.Wait()
			for _, ep := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var pkt [wire.PktBytes]byte
					ep.Begin()
					// A rank reports each superstep as it starts, and the
					// previous one's error with it: under sim a Sync returns
					// only once the token has gone round, which takes the
					// lower ranks' next superstep.
					var err error
					for s := 0; s < steps; s++ {
						<-start
						done <- err
						if err == nil {
							err = allToAll(ep, pkt[:], p, perPair)
						}
					}
					done <- err
					ep.Close()
				}()
			}
			var failed error
			collect := func() {
				for i := 0; i < p; i++ {
					if err := <-done; err != nil {
						failed = err
					}
				}
			}
			superstep := func() {
				for i := 0; i < p; i++ {
					start <- struct{}{}
				}
				collect()
			}
			for s := 0; s < warmup; s++ {
				superstep()
			}
			avg := testing.AllocsPerRun(runs, superstep)
			superstep()
			collect()
			if failed != nil {
				t.Fatal(failed)
			}
			if avg != 0 {
				t.Errorf("%s: %.0f allocs per all-to-all superstep, want 0", tr.Name(), avg)
			}
		})
	}
}

// allToAll is one superstep of the alloc gate: perPair packets to every
// rank, Sync, full drain.
func allToAll(ep Endpoint, pkt []byte, p, perPair int) error {
	for dst := 0; dst < p; dst++ {
		for k := 0; k < perPair; k++ {
			ep.Send(dst, pkt)
		}
	}
	in, err := ep.Sync()
	if err != nil {
		ep.Abort()
		return err
	}
	for {
		if _, ok := in.Next(); !ok {
			return nil
		}
	}
}
