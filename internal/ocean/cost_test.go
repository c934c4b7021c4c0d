package ocean

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// costSizes and costPs are the runs the cost tests measure.
var (
	costSizes = []int{18, 34, 66, 130, 258}
	costPs    = []int{1, 2, 3, 4, 8, 16}
)

// TestCostGolden pins the program parameters of Equation 1 that ocean's
// algorithm fixes — S, H and V-cycles per solve are deterministic in
// (size, p), whatever the host — so a change to the communication
// schedule shows up as a reviewed diff of testdata/cost_golden.txt
// (regenerate with -update, or `make golden`) and not as a benchmark
// surprise. It also holds every superstep to the halo lower bound's
// shape: a process sends and receives at most 2·m packets of halo (two
// black half-rows of u a side in a smoothing iteration or a residual's
// exchange, two whole coarse rows a side in a prolongation, one whole
// row a side in the ψ and vorticity exchanges; fewer below the finest
// level), and in the all-gather of the a×a agglomerated level a process
// receives the rest of that level and sends its strip of it to each of
// the p−1 others (4·a² covers both up to p = 4·a). The first smoothing
// iteration of a solve carries only f's two red half-rows, m packets:
// the residual check before it has brought u's. The H budget at size
// 130 is the largest H over p, rounded up by under 5 %.
// TestSuperstepsClosedForm derives S.
func TestCostGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# ocean, one timestep on sim: S and V-cycles depend on size alone, H on (size, p)")
	fmt.Fprintln(&buf, "# size  p    S      H  cycles")
	for _, size := range costSizes {
		cfg := Config{Size: size, Steps: 1}
		_, cycles, err := Sequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := size - 2
		a := m / 2 // the agglomerated level: the first one below the finest within aggM
		for a > aggM {
			a /= 2
		}
		hBound := max(2*m, 4*a*a)
		for _, p := range costPs {
			_, st, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, cfg)
			if err != nil {
				t.Fatalf("size %d p=%d: %v", size, p, err)
			}
			for i, step := range st.Steps {
				if step.MaxH > hBound {
					t.Errorf("size %d p=%d superstep %d: h = %d packets, above the halo bound %d", size, p, i, step.MaxH, hBound)
				}
			}
			if size == 130 && st.H() > 6900 {
				t.Errorf("size 130 p=%d: H = %d; the budget is H ≤ 6900", p, st.H())
			}
			fmt.Fprintf(&buf, "%6d %2d %4d %6d  %6d\n", size, p, st.S(), st.H(), cycles[0])
		}
	}
	const path = "testdata/cost_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ocean's (S, H, V-cycles) diverged from golden (run with -update after a deliberate schedule change)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSuperstepsClosedForm derives S instead of copying it. A timestep
// opens with the ψ and vorticity exchanges and the all-reduce of |f|∞,
// then runs c V-cycles, each after a residual check (an exchange and an
// all-reduce), and one last check: 5 + 2c. A V-cycle spends 4
// supersteps on each of its L strip levels — one per smoothing iteration
// before the coarse correction, the residual's exchange, and the
// prolongation's coarse-to-fine exchange, or on the last strip level the
// all-gather of the agglomerated level — but level 0's first smoothing
// iteration reads the halo the residual check has just brought, and
// syncs only in the first cycle, to bring f's: S = Σ 5 + [c>0] +
// c·(1 + 4L) over the timesteps, the same at every p. Restriction and
// the post-smoothing iteration need no superstep: the strips nest, and
// the residual's exchange and the prolongation of the ghost rows leave
// the post-smoother's halo current.
func TestSuperstepsClosedForm(t *testing.T) {
	for _, size := range costSizes {
		cfg := Config{Size: size, Steps: 1}
		_, cycles, err := Sequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		L := 1 // the finest level, and every level below it wider than aggM
		for lm := (size - 2) / 2; lm > aggM; lm /= 2 {
			L++
		}
		want := 0
		for _, c := range cycles {
			want += 5 + c*(1+4*L)
			if c > 0 {
				want++
			}
		}
		for _, p := range costPs {
			_, st, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, cfg)
			if err != nil {
				t.Fatalf("size %d p=%d: %v", size, p, err)
			}
			if st.S() != want {
				t.Errorf("size %d p=%d: S = %d, the closed form with %d V-cycle(s) and %d strip level(s) gives %d", size, p, st.S(), cycles, L, want)
			}
		}
	}
}

// batchMeter wraps a transport and records the largest per-pair batch
// body of any superstep: the messages a rank sent one peer, each behind
// its 4-byte frame prefix.
type batchMeter struct {
	transport.Transport
	mu      sync.Mutex
	largest int
}

func (t *batchMeter) Open(p int) ([]transport.Endpoint, error) {
	eps, err := t.Transport.Open(p)
	for i, ep := range eps {
		eps[i] = &meteredEndpoint{Endpoint: ep, t: t, sent: make([]int, p)}
	}
	return eps, err
}

type meteredEndpoint struct {
	transport.Endpoint
	t    *batchMeter
	sent []int // bytes for each peer in this superstep
}

func (e *meteredEndpoint) Send(dst int, msg []byte) {
	e.sent[dst] += 4 + len(msg)
	e.Endpoint.Send(dst, msg)
}

func (e *meteredEndpoint) Sync() (*transport.Inbox, error) {
	e.t.mu.Lock()
	for q, n := range e.sent {
		e.t.largest = max(e.t.largest, n)
		e.sent[q] = 0
	}
	e.t.mu.Unlock()
	return e.Endpoint.Sync()
}

// TestHaloBatchesStayEager: at size 130 every per-pair batch of every
// superstep fits the socket transports' 4 KiB eager limit, so no
// superstep of ocean-130 waits for the staged exchange. Half-rows are
// what keep the halo exchanges under it: the largest, a residual's
// exchange whose u lacks its whole first ghost row, carries that row and
// the black half of the second to each neighbor, 3 KiB of records.
func TestHaloBatchesStayEager(t *testing.T) {
	const eagerLimit = 4096
	for _, p := range []int{2, 3, 4, 8, 16} {
		tr := &batchMeter{Transport: transport.SimTransport{}}
		if _, _, err := Parallel(core.Config{P: p, Transport: tr}, Config{Size: 130, Steps: 1}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if tr.largest > eagerLimit {
			t.Errorf("p=%d: a per-pair batch of %d B, above the %d B eager limit", p, tr.largest, eagerLimit)
		}
	}
}
