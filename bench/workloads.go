package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ocean"
	"repro/internal/psort"
	"repro/internal/transport"
)

// ranks is p: the smallest machine whose staged exchange has more than
// one stage, and the p ROADMAP states its targets at.
const ranks = 4

// sizes are the workload sizes. Only the smoke test overrides them.
type sizes struct {
	hrelSteps, hrelMsgs, hrelBytes int
	oceanSize                      int
	sortKeys                       int
}

var fullSizes = sizes{hrelSteps: 200, hrelMsgs: 64, hrelBytes: 4096, oceanSize: 130, sortKeys: 1_000_000}

// A workload isolates one term of T = W + g·H + L·S, or one layer that
// only it reaches. Names are the contract with BENCHMARK.json.
type workload struct {
	name, why string
	// baseline names the workload whose wall time the traced pass
	// subtracts from this one's to give ckpt.delta_ms.
	baseline string
	setup    func(seed int64, sz sizes, d dirs) (*instance, error)
}

var workloads = []workload{
	{
		name:  "hrel-256k-tcp",
		why:   "g·H on sockets: 256 KiB per pair per superstep, so socket write/read and the bufio copy dominate",
		setup: setupHrel,
	},
	{
		name:  "ocean-130-tcp",
		why:   "L·S on sockets: 1244 supersteps of tiny halos, so per-superstep tcp latency dominates, not bandwidth",
		setup: setupOcean(transport.TCPTransport{}),
	},
	{
		name:  "ocean-130-shm",
		why:   "L·S in shared memory: same core/wire/Inbox code with no sockets; barrier and inbox reset dominate",
		setup: setupOcean(transport.ShmTransport{}),
	},
	{
		name:  "psort-1m-shm",
		why:   "W-dominated control: S = 4 and local sort is most of the wall, so data-plane changes predict no change",
		setup: setupSort(false),
	},
	{
		name:     "psort-1m-ckpt",
		why:      "checkpoint capture: the same sort with a snapshot at all 4 cuts; pays encode, crc, write, fsync, rename",
		baseline: "psort-1m-shm",
		setup:    setupSort(true),
	},
	{
		name:  "ocean-130-cluster",
		why:   "multi-process end to end: bsprun -cluster, ranks as OS processes; spawn, handshake, cross-process sockets",
		setup: setupCluster,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is what one verified run yields.
type sample struct {
	wall  time.Duration
	alloc uint64        // bytes the program allocated
	work  time.Duration // Stats.TotalWork()/P; in-process only
	cnt   counts
	ckpt  core.CkptStats
	// cluster is the parsed launch report; nil in-process.
	cluster *clusterOutput
}

// instance is a workload with its inputs generated and its reference
// solution computed.
type instance struct {
	// inProcess says whether the span decorator can reach the ranks.
	inProcess bool
	// run is one complete program execution, Transport.Open to Close,
	// verified. With a store it runs on the decorated transport and
	// leaves the run's spans there.
	run func(store *spanStore) (sample, error)
	// allocAfter, where set, is the run whose allocation stands for
	// run's, which has none this process can see. It is called only
	// after the last timed run.
	allocAfter func() (sample, error)
}

// measure times one in-process program execution and the bytes it
// allocates. Garbage of earlier runs is collected first so that a run's
// GC work is its own. A run that outlives runTimeout cannot be unwound
// (its ranks are goroutines of this process), so the watchdog ends the
// benchmark without a result.
func measure(base transport.Transport, store *spanStore, fn func(tr transport.Transport) (*core.Stats, error)) (sample, error) {
	tr := base
	if store != nil {
		store.begin()
		tr = spanTransport{base: base, store: store}
	}
	guard := time.AfterFunc(runTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: run exceeded %v\n", runTimeout)
		os.Exit(2)
	})
	defer guard.Stop()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var start int64
	if store != nil {
		start = store.now()
	}
	t0 := time.Now()
	st, err := fn(tr)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, err
	}
	if store != nil {
		store.top = append(store.top, span{kind: spanRun, step: -1, start: start, end: start + int64(wall)})
	}
	s := sample{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, work: st.TotalWork() / time.Duration(st.P), cnt: countsOf(st)}
	if st.Ckpt != nil {
		s.ckpt = *st.Ckpt
		s.cnt.Cuts, s.cnt.CkptBytes = st.Ckpt.Cuts, st.Ckpt.Bytes
	}
	return s, nil
}

// setupHrel: every rank Sends hrelMsgs messages of hrelBytes to each
// peer in each of hrelSteps supersteps and drains them with Recv. The
// payload bytes come from the seed; the counts are known in closed form.
func setupHrel(seed int64, sz sizes, _ dirs) (*instance, error) {
	payload := make([]byte, sz.hrelBytes)
	rand.New(rand.NewSource(seed)).Read(payload)
	perRank := (ranks - 1) * sz.hrelMsgs * ((sz.hrelBytes + core.PktSize - 1) / core.PktSize)
	want := counts{S: sz.hrelSteps, H: sz.hrelSteps * perRank, Pkts: sz.hrelSteps * perRank * ranks}
	run := func(store *spanStore) (sample, error) {
		checks := make([]*hrelCheck, ranks)
		for r := range checks {
			checks[r] = newHrelCheck(r, ranks, sz.hrelMsgs, sz.hrelBytes)
		}
		s, err := measure(transport.TCPTransport{}, store, func(tr transport.Transport) (*core.Stats, error) {
			return core.Run(core.Config{P: ranks, Transport: tr}, func(c *core.Proc) {
				hrelRank(c, sz, payload, checks[c.ID()])
			})
		})
		if err != nil {
			return s, err
		}
		for r, chk := range checks {
			if chk.bad != 0 {
				return s, fmt.Errorf("hrel: rank %d saw %d bad deliveries", r, chk.bad)
			}
		}
		return s, verifyCounts(s.cnt, want)
	}
	return &instance{inProcess: true, run: run}, nil
}

func hrelRank(c *core.Proc, sz sizes, payload []byte, chk *hrelCheck) {
	buf := append([]byte(nil), payload...)
	for step := 0; step < sz.hrelSteps; step++ {
		for dst := 0; dst < c.P(); dst++ {
			if dst == c.ID() {
				continue
			}
			for k := 0; k < sz.hrelMsgs; k++ {
				putHrelHeader(buf, c.ID(), step, k)
				c.Send(dst, buf)
			}
		}
		c.Sync()
		got := 0
		for m, ok := c.Recv(); ok; m, ok = c.Recv() {
			chk.message(step, m)
			got++
		}
		chk.endStep(got)
	}
}

// oceanRef is the workload's problem with its solution and counts.
type oceanRef struct {
	cfg    ocean.Config
	fields *ocean.Fields
	cnt    counts
}

// oceanReference solves the workload's problem once on the sim
// transport. ocean has no random input: its grid, forcing and tolerance
// are fixed by Config, so the seed does not reach it.
func oceanReference(sz sizes) (*oceanRef, error) {
	cfg := ocean.Config{Size: sz.oceanSize, Steps: 1}
	fields, st, err := ocean.Parallel(core.Config{P: ranks, Transport: transport.SimTransport{}}, cfg)
	if err != nil {
		return nil, fmt.Errorf("ocean reference on sim: %w", err)
	}
	return &oceanRef{cfg: cfg, fields: fields, cnt: countsOf(st)}, nil
}

func setupOcean(base transport.Transport) func(int64, sizes, dirs) (*instance, error) {
	return func(_ int64, sz sizes, _ dirs) (*instance, error) {
		ref, err := oceanReference(sz)
		if err != nil {
			return nil, err
		}
		run := func(store *spanStore) (sample, error) { return ref.run(base, store) }
		return &instance{inProcess: true, run: run}, nil
	}
}

// run solves the reference's problem once on base and verifies the
// fields and the counts against it.
func (ref *oceanRef) run(base transport.Transport, store *spanStore) (sample, error) {
	var got *ocean.Fields
	s, err := measure(base, store, func(tr transport.Transport) (st *core.Stats, err error) {
		got, st, err = ocean.Parallel(core.Config{P: ranks, Transport: tr}, ref.cfg)
		return st, err
	})
	if err != nil {
		return s, err
	}
	if err := verifyFields(got, ref.fields); err != nil {
		return s, err
	}
	return s, verifyCounts(s.cnt, ref.cnt)
}

// setupSort: sortKeys uniform float64 keys from the seed on shm. With
// checkpoint, every run snapshots all four cuts into a fresh directory.
// The directory is inside the checkout, so the capture pays the host
// file system's fsync.
func setupSort(checkpoint bool) func(int64, sizes, dirs) (*instance, error) {
	return func(seed int64, sz sizes, d dirs) (*instance, error) {
		data := psort.RandomData(sz.sortKeys, seed)
		sum := keyChecksum(data)
		dir := filepath.Join(d.build, "ckpt")
		var want counts // fixed by the first run
		run := func(store *spanStore) (sample, error) {
			cfg := core.Config{P: ranks}
			parallel := psort.Parallel
			if checkpoint {
				if err := mkdirClean(dir); err != nil {
					return sample{}, err
				}
				cfg.Checkpoint = &core.CheckpointConfig{Dir: dir, Every: 1}
				parallel = psort.ParallelRecoverable
			}
			var out []float64
			s, err := measure(transport.ShmTransport{}, store, func(tr transport.Transport) (st *core.Stats, err error) {
				cfg.Transport = tr
				out, st, err = parallel(cfg, data)
				return st, err
			})
			if err != nil {
				return s, err
			}
			if err := verifySorted(out, len(data), sum); err != nil {
				return s, err
			}
			if checkpoint {
				if s.cnt.Cuts != s.cnt.S {
					return s, fmt.Errorf("checkpoint: %d cuts in %d supersteps", s.cnt.Cuts, s.cnt.S)
				}
				if err := verifyCheckpoint(dir, ranks, s.cnt.S); err != nil {
					return s, err
				}
			}
			if want == (counts{}) {
				want = s.cnt
			}
			return s, verifyCounts(s.cnt, want)
		}
		return &instance{inProcess: true, run: run}, nil
	}
}

// setupCluster builds cmd/bsprun and solves the reference; a run is one
// `bsprun -cluster` launch, and its wall is the launcher's gang wall.
//
// The rank processes' heaps cannot be read from outside (and ru_maxrss
// of a child is no substitute: Linux folds the parent's peak into it at
// exec). The run's allocation is therefore that of the same program on
// the cluster transport hosted in this process — coordinator, handshake
// and staged tcp exchange as in the gang, ranks as goroutines. Hosting
// it slows the launches that follow by a tenth and more, so the timed
// pass measures it after its last launch.
func setupCluster(_ int64, sz sizes, d dirs) (*instance, error) {
	bin, err := buildBsprun(d)
	if err != nil {
		return nil, err
	}
	ref, err := oceanReference(sz)
	if err != nil {
		return nil, err
	}
	// bsprun arms its flight recorder by default and would put the
	// bundle of a failed run under $TMPDIR; keep it in the checkout.
	postmortem := filepath.Join(d.build, "postmortem")
	run := func(*spanStore) (sample, error) {
		out, err := runCluster(bin, postmortem, "ocean", sz.oceanSize, ranks)
		if err != nil {
			return sample{}, err
		}
		return sample{wall: out.gangWall, cnt: ref.cnt, cluster: &out}, verifyCluster(out, ranks, ref.cnt)
	}
	hosted := func() (sample, error) { return ref.run(transport.ClusterTransport{}, nil) }
	return &instance{run: run, allocAfter: hosted}, nil
}

// mkdirClean returns an empty directory at path.
func mkdirClean(path string) error {
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	return os.MkdirAll(path, 0o777)
}
