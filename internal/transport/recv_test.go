package transport

// Tests for the socket engine's receive path (tcp.go readBatch): batches
// are read straight into pooled buffers, a first read of at most
// firstReadLimit bytes followed by one exact read of the rest, with any
// bytes read past a batch carried to that peer's next batch. The
// fragmenting test drives the eager/staged mix through connections that
// split every read and write; the carry test pins a superstep served
// entirely from carried bytes; the memory gate pins what standing up a
// socket machine costs per pair.

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"
)

// fragConn splits the byte stream at seeded points: every Read returns
// 1..fragMax bytes — half the time at most 9, so batch headers arrive
// in pieces — and every Write goes out as a run of such pieces. Reads
// and writes on one connection come from its endpoint's goroutine, but
// each direction keeps its own generator anyway.
type fragConn struct {
	net.Conn
	rd, wr *rand.Rand
}

// fragMax is the largest piece: above eagerLimit, so an eager batch
// sometimes arrives whole and a first read may take bytes past it.
const fragMax = eagerLimit + 2048

func fragLen(rng *rand.Rand, n int) int {
	k := fragMax
	if rng.Intn(2) == 0 {
		k = 9
	}
	return min(n, 1+rng.Intn(k))
}

func (c *fragConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return c.Conn.Read(p[:fragLen(c.rd, len(p))])
}

func (c *fragConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := c.Conn.Write(p[done : done+fragLen(c.wr, len(p)-done)])
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

func fragmenting(seed int64) func(local, peer int, c net.Conn) net.Conn {
	return func(local, peer int, c net.Conn) net.Conn {
		s := seed*1000 + int64(local)*31 + int64(peer)
		return &fragConn{Conn: c, rd: rand.New(rand.NewSource(s)), wr: rand.New(rand.NewSource(^s))}
	}
}

// TestConformanceFragmentedReads runs the eager/staged size mix (0,
// eagerLimit, eagerLimit+1 and 256 KiB batches, ranks drifting a
// superstep apart) over connections that fragment every read and
// write, so headers split across reads, first reads stop short of or
// run past their batch, and carried bytes start the next batch.
func TestConformanceFragmentedReads(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	const rounds = 200
	const stage = 2 * time.Second
	for _, p := range []int{2, 4, 5} {
		seed := int64(100 + p)
		for _, tr := range []Transport{
			TCPTransport{StageTimeout: stage, MaxRetries: -1, wrapConn: fragmenting(seed)},
			ClusterTransport{StageTimeout: stage, MaxRetries: -1, wrapConn: fragmenting(seed)},
		} {
			t.Run(fmt.Sprintf("%s/p=%d", tr.Name(), p), func(t *testing.T) {
				runMix(t, tr, p, rounds, seed)
			})
		}
	}
	t.Run("carry", testCarriedBatch)
}

// gatedConn holds rank 0's first read from rank 1 until rank 1 has
// written its second batch, then returns both batches in that one read
// — so the second superstep's batch can only come from the carry.
type gatedConn struct {
	net.Conn
	gate  chan struct{} // closed once the writer's second batch is out
	want  int           // bytes of both batches
	reads int
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.reads++
	if c.reads > 1 {
		return c.Conn.Read(p)
	}
	<-c.gate
	return io.ReadAtLeast(c.Conn, p, c.want)
}

// signalConn closes gate once its second Write has returned.
type signalConn struct {
	net.Conn
	gate   chan struct{}
	writes int
}

func (c *signalConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.writes++; c.writes == 2 {
		close(c.gate)
	}
	return n, err
}

// testCarriedBatch: rank 1's batches for supersteps 1 and 2 are both
// queued before rank 0 reads at all, and rank 0's first read takes
// them together. Superstep 1 must deliver only the first, and
// superstep 2 the second without another read: were the bytes read
// past the first batch dropped, rank 0 would wait for a batch already
// consumed and fail the superstep.
func testCarriedBatch(t *testing.T) {
	msgs := [2]string{"first superstep", "second superstep"}
	want := 2 * (batchHdrLen + 4) // two headers, two frame prefixes
	for _, m := range msgs {
		want += len(m)
	}
	const stage = 2 * time.Second
	for _, name := range []string{"tcp", "cluster"} {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			var reader *gatedConn
			wrap := func(local, peer int, c net.Conn) net.Conn {
				switch {
				case local == 0 && peer == 1:
					reader = &gatedConn{Conn: c, gate: gate, want: want}
					return reader
				case local == 1 && peer == 0:
					return &signalConn{Conn: c, gate: gate}
				}
				return c
			}
			var tr Transport = TCPTransport{StageTimeout: stage, MaxRetries: -1, wrapConn: wrap}
			if name == "cluster" {
				tr = ClusterTransport{StageTimeout: stage, MaxRetries: -1, wrapConn: wrap}
			}
			var got [2][]string
			runProcs(t, tr, 2, func(ep Endpoint) {
				for s, m := range msgs {
					if ep.ID() == 1 {
						ep.Send(0, []byte(m))
					}
					in, err := ep.Sync()
					if err != nil {
						t.Errorf("rank %d superstep %d: %v", ep.ID(), s+1, err)
						ep.Abort()
						return
					}
					if ep.ID() == 0 {
						for _, v := range drain(in) {
							got[s] = append(got[s], string(v))
						}
					}
				}
			})
			for s, m := range msgs {
				if len(got[s]) != 1 || got[s][0] != m {
					t.Errorf("superstep %d delivered %q, want [%q]", s+1, got[s], m)
				}
			}
			if reader == nil {
				t.Fatal("rank 0's connection from rank 1 was never wrapped")
			}
			if reader.reads != 1 {
				t.Errorf("rank 0 read from rank 1 %d times, want 1 (the second batch from the carry)", reader.reads)
			}
		})
	}
}

// TestLinkOpenBytes is the per-machine memory gate of the socket
// links: standing up p ranks, three supersteps in which every rank
// sends one small message to every rank, and Close must allocate at
// most linkPairBytes per ordered pair on tcp and cluster. Receive
// buffers come from the batch pool, so nothing per pair may scale with
// a batch size (a stream buffer per connection would cost 64 KiB per
// pair). One untimed machine first pays the process's one-time costs;
// the gate reads the least of three measured machines, as a collection
// or a stray goroutine can only add to a measurement.
func TestLinkOpenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const linkPairBytes = 8 << 10
	for _, tr := range []Transport{TCPTransport{}, ClusterTransport{}} {
		openBytes(t, tr, 4)
		for _, p := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/p=%d", tr.Name(), p), func(t *testing.T) {
				least := openBytes(t, tr, p)
				for i := 0; i < 2; i++ {
					least = min(least, openBytes(t, tr, p))
				}
				budget := uint64(linkPairBytes * p * (p - 1))
				t.Logf("%d bytes (%d per ordered pair), budget %d", least, least/uint64(p*(p-1)), budget)
				if least > budget {
					t.Errorf("Open + 3 supersteps + Close allocated %d bytes, want <= %d (%d per ordered pair)",
						least, budget, linkPairBytes)
				}
			})
		}
	}
}

// openBytes returns the heap bytes allocated by one machine's Open,
// three small all-to-all supersteps and Close.
func openBytes(t *testing.T, tr Transport, p int) uint64 {
	t.Helper()
	msg := []byte("0123456789abcdef")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runProcs(t, tr, p, func(ep Endpoint) {
		for s := 0; s < 3; s++ {
			for dst := 0; dst < p; dst++ {
				ep.Send(dst, msg)
			}
			in, err := ep.Sync()
			if err != nil {
				t.Errorf("%s p=%d rank %d: %v", tr.Name(), p, ep.ID(), err)
				ep.Abort()
				return
			}
			for {
				if _, ok := in.Next(); !ok {
					break
				}
			}
		}
	})
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
