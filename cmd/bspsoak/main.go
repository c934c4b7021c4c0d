// Command bspsoak soaks the fault-tolerance machinery: for a
// wall-clock budget it cycles seeded fault scenarios over psort and
// ocean — in-process chaos crashes on the shared-memory transport,
// warm single-rank recovery on a real multi-process cluster gang, and
// control-plane partitions injected by a TCP chaos proxy — and after
// every round asserts that the faulted run's result is byte-identical
// to a fault-free run's and that recovery stayed bounded: exactly one
// process relaunch per injected cluster crash, zero gang fallbacks,
// no goroutine leaked across the whole soak.
//
// The binary re-executes itself as the cluster rank processes (a
// launch.Spec in the environment short-circuits main), so a single
// artifact is both the driver and the gang. Every fault decision is
// drawn from -seed; a failing round prints the fault plan needed to
// replay it.
//
// With -trace the warm-recovery rounds write per-rank trace shards and
// the merged Chrome timeline of the last such round is kept at the
// given path — the soak's observability artifact, validated by
// cmd/tracecheck in CI (it must carry the crash and rollback markers).
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/launch"
	"repro/internal/psort"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	duration := flag.Duration("duration", 60*time.Second, "wall-clock soak budget; every scenario runs at least once even if it overruns")
	seed := flag.Int64("seed", 1, "root of every fault decision (crash sites, partition windows)")
	p := flag.Int("p", 4, "ranks per machine/gang")
	size := flag.Int("size", 4000, "psort input size")
	grid := flag.Int("grid", 18, "ocean grid size (interior must be a power of two)")
	dir := flag.String("dir", "", "work directory (default: a fresh temp dir, removed on success)")
	traceFile := flag.String("trace", "", "write the merged Chrome trace of the last warm-recovery round here")
	keep := flag.Bool("keep", false, "keep the work directory even on success")
	flag.Parse()

	// A rank child is started with the gang's -size and -seed, and with
	// -dir naming the round's output directory.
	spec, isChild, err := launch.FromEnv()
	switch {
	case err != nil:
		os.Exit(launch.Report("bspsoak rank", err))
	case isChild:
		os.Exit(runRank(spec, *size, *seed, *dir))
	}
	os.Exit(run(*duration, *seed, *p, *size, *grid, *dir, *traceFile, *keep))
}

type soak struct {
	p, size int
	seed    int64
	dir     string
	trace   string
	exe     string
	round   int

	// gangBase holds the per-rank partitions of a fault-free cluster
	// gang, the byte-identity baseline for every faulted gang round.
	gangBase map[int][]byte

	rankRelaunches int64
}

type scenario struct {
	name string
	run  func(*rand.Rand) (string, error)
}

func run(duration time.Duration, seed int64, p, size, grid int, workDir, traceFile string, keep bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bspsoak:", err)
		return 1
	}
	ownDir := workDir == ""
	if ownDir {
		if workDir, err = os.MkdirTemp("", "bspsoak-"); err != nil {
			fmt.Fprintln(os.Stderr, "bspsoak:", err)
			return 1
		}
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bspsoak:", err)
		return 1
	}

	s := &soak{p: p, size: size, seed: seed, dir: workDir, trace: traceFile, exe: exe}
	var scenarios []scenario
	for _, in := range []struct {
		app  string
		size int
	}{{"psort", size}, {"ocean", grid}} {
		sc, err := s.shmCrash(in.app, in.size)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bspsoak:", err)
			return 1
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios,
		scenario{"cluster-warm-crash", s.clusterWarmCrash},
		scenario{"cluster-partition-join", s.clusterPartitionJoin})

	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	deadline := start.Add(duration)
	counts := make([]int, len(scenarios))
	// Cycle until the budget runs out, but never skip a scenario: the
	// smoke run must exercise every fault class at least once.
	for s.round = 0; s.round < len(scenarios) || time.Now().Before(deadline); s.round++ {
		sc := scenarios[s.round%len(scenarios)]
		t0 := time.Now()
		detail, err := sc.run(rng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bspsoak: FAIL round %d %s: %v\n", s.round, sc.name, err)
			fmt.Fprintf(os.Stderr, "bspsoak: work dir kept at %s (rerun with -seed %d to replay)\n", workDir, seed)
			return 1
		}
		counts[s.round%len(scenarios)]++
		fmt.Printf("bspsoak: round %3d  %-22s ok  %s  [%v]\n",
			s.round, sc.name, detail, time.Since(t0).Round(time.Millisecond))
	}

	if err := settleGoroutines(baseGoroutines); err != nil {
		fmt.Fprintf(os.Stderr, "bspsoak: FAIL %v\n", err)
		return 1
	}

	fmt.Printf("bspsoak: PASS %d rounds in %v (seed %d):", s.round, time.Since(start).Round(time.Millisecond), seed)
	for i, sc := range scenarios {
		fmt.Printf(" %s=%d", sc.name, counts[i])
	}
	fmt.Printf("; %d surgical rank relaunches, 0 gang fallbacks, goroutines settled\n", s.rankRelaunches)
	if ownDir && !keep {
		os.RemoveAll(workDir)
	}
	return 0
}

// settleGoroutines waits for the goroutine count to return to the
// pre-soak baseline: every machine, gang supervisor, heartbeat loop and
// proxy pipe must have unwound.
func settleGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "---- goroutine dump ----\n%s\n", buf)
		return fmt.Errorf("goroutine leak: %d alive after soak, %d before", n, base)
	}
	return nil
}

// ---- in-process scenarios ------------------------------------------

// shmCrash builds the scenario that runs one registered application on
// the shared-memory transport with Checkpoint armed and a seeded hard
// crash, and asserts the recovered result is bit-identical to a
// fault-free run over the same input.
func (s *soak) shmCrash(name string, size int) (scenario, error) {
	app, err := apps.Lookup(name)
	if err != nil {
		return scenario{}, err
	}
	inst := app.New(size)
	var want any // the fault-free result, computed by the first round
	var steps int
	return scenario{"shm-" + name + "-crash", func(rng *rand.Rand) (string, error) {
		if want == nil {
			res, st, err := inst.Run(core.Config{P: s.p, Transport: transport.ShmTransport{}})
			if err != nil {
				return "", fmt.Errorf("fault-free run: %w", err)
			}
			want, steps = res, st.S()
		}
		// From superstep 2 on at least one complete snapshot cut exists
		// (psort's sample gather, ocean's first timestep boundary); the
		// window stays inside the program's first supersteps.
		plan := transport.FaultPlan{Seed: rng.Int63(), CrashRank: rng.Intn(s.p), CrashStep: 2 + rng.Intn(min(7, steps-2))}
		ckptDir, err := os.MkdirTemp(s.dir, "shm-"+name+"-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(ckptDir)
		got, _, err := inst.Run(core.Config{
			P:           s.p,
			Transport:   transport.NewChaosTransport(transport.ShmTransport{}, plan),
			SyncTimeout: 30 * time.Second,
			Checkpoint:  &core.CheckpointConfig{Dir: ckptDir, Every: 1, Backoff: time.Millisecond},
		})
		if err != nil {
			return "", fmt.Errorf("crashed run did not recover [plan %s]: %w", plan, err)
		}
		if !reflect.DeepEqual(got, want) {
			return "", fmt.Errorf("recovered result diverges from fault-free [plan %s]", plan)
		}
		return fmt.Sprintf("size=%d crash %d:%d", size, plan.CrashRank, plan.CrashStep), nil
	}}, nil
}

// ---- cluster scenarios ---------------------------------------------

// gangCommand builds the launch.Job Command hook: this binary,
// re-executed as one rank, with the round's directories and fault plan
// added to the spec.
func (s *soak) gangCommand(outDir, ckptDir, shardDir, postDir, chaos string) func(launch.Spec) *exec.Cmd {
	return func(spec launch.Spec) *exec.Cmd {
		spec.Chaos, spec.CheckpointDir = chaos, ckptDir
		spec.ShardDir, spec.PostmortemDir = shardDir, postDir
		cmd := exec.Command(s.exe, "-size", strconv.Itoa(s.size), "-seed", strconv.FormatInt(s.seed, 10), "-dir", outDir)
		cmd.Env = append(os.Environ(), spec.Env())
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// ensureGangBaseline runs one fault-free cold gang and captures its
// per-rank partitions, the baseline every faulted gang must match byte
// for byte.
func (s *soak) ensureGangBaseline() error {
	if s.gangBase != nil {
		return nil
	}
	outDir := filepath.Join(s.dir, "gang-baseline")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	job := &launch.Job{
		P:           s.p,
		JobID:       fmt.Sprintf("soak-baseline-%d", os.Getpid()),
		JoinTimeout: 15 * time.Second,
		Command:     s.gangCommand(outDir, "", "", "", ""),
	}
	if err := job.Run(); err != nil {
		return fmt.Errorf("fault-free baseline gang: %w", err)
	}
	parts := make(map[int][]byte, s.p)
	total := 0
	for r := 0; r < s.p; r++ {
		b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("part-r%02d", r)))
		if err != nil {
			return fmt.Errorf("baseline gang left no partition for rank %d: %w", r, err)
		}
		parts[r] = b
		total += len(b) / 8
	}
	if total != s.size {
		return fmt.Errorf("baseline partitions cover %d elements, want %d", total, s.size)
	}
	s.gangBase = parts
	return nil
}

// comparePartitions asserts a faulted gang's per-rank output matches
// the fault-free baseline byte for byte.
func (s *soak) comparePartitions(outDir string) error {
	for r := 0; r < s.p; r++ {
		got, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("part-r%02d", r)))
		if err != nil {
			return fmt.Errorf("gang left no partition for rank %d: %w", r, err)
		}
		if !bytes.Equal(s.gangBase[r], got) {
			return fmt.Errorf("rank %d partition diverges from fault-free baseline (%d vs %d bytes)", r, len(got), len(s.gangBase[r]))
		}
	}
	return nil
}

// clusterWarmCrash crashes one rank of a warm p-process gang and
// asserts the recovery was surgical: exactly one process relaunch (the
// crashed rank's, at the fenced epoch), zero gang fallbacks, survivors
// never re-executed, output byte-identical to the baseline.
func (s *soak) clusterWarmCrash(rng *rand.Rand) (string, error) {
	if err := s.ensureGangBaseline(); err != nil {
		return "", err
	}
	roundDir := filepath.Join(s.dir, fmt.Sprintf("round-%03d", s.round))
	outDir := filepath.Join(roundDir, "out")
	ckptDir := filepath.Join(roundDir, "ckpt")
	postDir := filepath.Join(roundDir, "post")
	shardDir := ""
	if s.trace != "" {
		shardDir = filepath.Join(roundDir, "shards")
	}
	for _, d := range []string{outDir, ckptDir, postDir, shardDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return "", err
			}
		}
	}
	crashed := rng.Intn(s.p)
	plan := transport.FaultPlan{Seed: rng.Int63(), CrashRank: crashed, CrashStep: 2 + rng.Intn(2)}
	job := &launch.Job{
		P:                 s.p,
		JobID:             fmt.Sprintf("soak-warm-%d-%d", os.Getpid(), s.round),
		JoinTimeout:       15 * time.Second,
		MaxRestarts:       3,
		Warm:              true,
		HeartbeatInterval: 100 * time.Millisecond,
		SuspectAfter:      2 * time.Second,
		Command:           s.gangCommand(outDir, ckptDir, shardDir, postDir, plan.String()),
	}
	if err := job.Run(); err != nil {
		return "", fmt.Errorf("warm gang did not recover [plan %s]: %w", plan, err)
	}
	if err := s.checkTelemetry(job, plan); err != nil {
		return "", err
	}
	if n := job.GangRelaunches(); n != 0 {
		return "", fmt.Errorf("gang relaunches = %d, want 0 — warm recovery must be surgical [plan %s]", n, plan)
	}
	for r, n := range job.RankRestarts() {
		want := int64(0)
		if r == crashed {
			want = 1
		}
		if n != want {
			return "", fmt.Errorf("rank %d relaunches = %d, want %d [plan %s]", r, n, want, plan)
		}
	}
	// The process census agrees with the counters: only the crashed
	// rank ran a second (epoch 1) process.
	for r := 0; r < s.p; r++ {
		_, err := os.Stat(filepath.Join(outDir, fmt.Sprintf("gen-e1-r%d", r)))
		if r == crashed && err != nil {
			return "", fmt.Errorf("crashed rank %d left no epoch-1 marker (never relaunched?) [plan %s]", r, plan)
		}
		if r != crashed && err == nil {
			return "", fmt.Errorf("surviving rank %d left an epoch-1 marker (re-execed instead of rolled back in place) [plan %s]", r, plan)
		}
	}
	if err := s.comparePartitions(outDir); err != nil {
		return "", fmt.Errorf("%w [plan %s]", err, plan)
	}
	if err := s.checkPostmortem(postDir, crashed, plan); err != nil {
		return "", err
	}
	if shardDir != "" {
		rec, err := trace.MergeShardDir(shardDir)
		if err == nil {
			err = rec.WriteChromeFile(s.trace)
		}
		if err != nil {
			return "", fmt.Errorf("merge trace shards: %w", err)
		}
	}
	s.rankRelaunches++
	os.RemoveAll(roundDir)
	return fmt.Sprintf("crash %d:%d, 1 surgical relaunch, %d-dump postmortem", plan.CrashRank, plan.CrashStep, s.p), nil
}

// checkTelemetry asserts one warm round's telemetry plane stayed
// coherent across the crash: every rank reported at least one beat with
// telemetry (the leave-time beat guarantees this even for short
// generations), a survivor that rolled back in place and rejoined is
// still one incarnation (its recorder did not restart, so counting it
// twice would double its totals), and the final per-rank last-superstep
// view is uniform — recovery left no rank's public progress behind.
func (s *soak) checkTelemetry(job *launch.Job, plan transport.FaultPlan) error {
	ranks := job.Status().Ranks
	if len(ranks) != s.p {
		return fmt.Errorf("final status covers %d ranks, want %d [plan %s]", len(ranks), s.p, plan)
	}
	restarts := job.RankRestarts()
	last := int64(-2)
	for r, rs := range ranks {
		if rs.Baselines < 1 {
			return fmt.Errorf("rank %d never reported telemetry [plan %s]", r, plan)
		}
		if restarts[r] == 0 && rs.Baselines != 1 {
			return fmt.Errorf("rank %d was never relaunched but counts %d incarnations — a rejoin was taken for a new recorder [plan %s]", r, rs.Baselines, plan)
		}
		if last == -2 {
			last = rs.LastStep
		} else if rs.LastStep != last {
			return fmt.Errorf("final last-superstep diverges: rank %d at %d, rank 0 at %d [plan %s]", r, rs.LastStep, last, plan)
		}
	}
	if last < 0 {
		return fmt.Errorf("telemetry never saw a completed superstep [plan %s]", plan)
	}
	return nil
}

// checkPostmortem asserts the crash forensics of one warm round: the
// dead generation left exactly one complete postmortem bundle — one
// epoch-0 dump per rank, no duplicates from the dump broadcast racing
// the local failure path — every survivor's dump names the convicted
// rank, and the dumps agree on the failing superstep (the injected
// crash fires in 0-based superstep CrashStep-1, so every survivor's
// last completed barrier is within one recording slot of CrashStep-2).
func (s *soak) checkPostmortem(postDir string, crashed int, plan transport.FaultPlan) error {
	if _, err := trace.GatherBundle(postDir); err != nil {
		return fmt.Errorf("gather postmortem bundle: %w [plan %s]", err, plan)
	}
	_, dumps, err := trace.ReadBundle(postDir)
	if err != nil {
		return fmt.Errorf("warm round left no postmortem bundle: %w [plan %s]", err, plan)
	}
	if len(dumps) != s.p {
		return fmt.Errorf("postmortem bundle has %d dumps, want exactly one per rank (%d) [plan %s]", len(dumps), s.p, plan)
	}
	failStep := plan.CrashStep - 1 // 0-based superstep the crash fired in
	var crashDump bool
	for _, d := range dumps {
		if d.Epoch != 0 {
			return fmt.Errorf("rank %d dumped at epoch %d, want 0 — only the dead generation dumps [plan %s]", d.Rank, d.Epoch, plan)
		}
		if d.Rank == crashed {
			crashDump = true
			for _, e := range d.Events {
				if e.Kind == trace.KindFault && trace.FaultCode(e.A) == trace.FaultCrash && int(e.Step) != failStep {
					return fmt.Errorf("crashed rank's ring has the fault at superstep %d, want %d [plan %s]", e.Step, failStep, plan)
				}
			}
			continue
		}
		if !strings.Contains(d.Reason, fmt.Sprintf("rank %d", crashed)) {
			return fmt.Errorf("survivor rank %d's dump reason %q does not name the convicted rank %d [plan %s]", d.Rank, d.Reason, crashed, plan)
		}
		// A survivor is blocked in the failing superstep's barrier when
		// it dumps: its last recorded barrier is failStep-1, or one
		// earlier if the dump frame won the race against the recording
		// of the barrier it just completed.
		if last := d.LastCompletedStep(); last < failStep-2 || last > failStep-1 {
			return fmt.Errorf("survivor rank %d's last completed superstep %d disagrees with the failing superstep %d [plan %s]", d.Rank, last, failStep, plan)
		}
	}
	if !crashDump {
		return fmt.Errorf("no dump from the convicted rank %d [plan %s]", crashed, plan)
	}
	return nil
}

// clusterPartitionJoin assembles a gang whose control plane runs
// through a chaos proxy that is partitioned when the ranks start
// dialing and stays a slow link for the whole run: the join retries
// must ride out the partition, the heartbeats must tolerate the delay,
// and the result must match the baseline with zero relaunches.
func (s *soak) clusterPartitionJoin(rng *rand.Rand) (string, error) {
	if err := s.ensureGangBaseline(); err != nil {
		return "", err
	}
	outDir := filepath.Join(s.dir, fmt.Sprintf("round-%03d", s.round))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	window := time.Duration(200+rng.Intn(400)) * time.Millisecond
	delay := time.Duration(rng.Intn(3)) * 500 * time.Microsecond
	var proxy *transport.ChaosProxy
	var perr error
	job := &launch.Job{
		P:           s.p,
		JobID:       fmt.Sprintf("soak-part-%d-%d", os.Getpid(), s.round),
		JoinTimeout: 20 * time.Second,
		Command:     s.gangCommand(outDir, "", "", "", ""),
		AdvertiseCoordinator: func(addr string) string {
			if proxy, perr = transport.NewChaosProxy(addr); perr != nil {
				return addr
			}
			proxy.SetDelay(delay)
			proxy.Partition(window)
			return proxy.Addr()
		},
	}
	err := job.Run()
	if proxy != nil {
		proxy.Close()
	}
	if perr != nil {
		return "", fmt.Errorf("chaos proxy: %w", perr)
	}
	if err != nil {
		return "", fmt.Errorf("gang behind a %v join partition failed: %w", window, err)
	}
	// Nothing should have been relaunched: the partition healed inside
	// every join deadline.
	for r := 0; r < s.p; r++ {
		if _, err := os.Stat(filepath.Join(outDir, fmt.Sprintf("gen-e1-r%d", r))); err == nil {
			return "", fmt.Errorf("rank %d was relaunched during a heal-in-time partition (window %v)", r, window)
		}
	}
	if err := s.comparePartitions(outDir); err != nil {
		return "", fmt.Errorf("%w (window %v)", err, window)
	}
	os.RemoveAll(outDir)
	return fmt.Sprintf("join partition %v, control-plane delay %v", window, delay), nil
}

func f64bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// ---- rank child ----------------------------------------------------

// runRank is one OS process hosting one rank of a soak gang: psort
// over the gang's seeded data under the spec's machine, the rank's
// partition left in outDir.
func runRank(spec launch.Spec, size int, seed int64, outDir string) int {
	// A generation marker per (epoch, rank) process lets the driver
	// assert which ranks were relaunched and which survived in place.
	marker := filepath.Join(outDir, fmt.Sprintf("gen-e%d-r%d", spec.Epoch, spec.Rank))
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		return launch.Report("bspsoak rank", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return launch.Report("bspsoak rank", err)
	}
	cfg.SyncTimeout = 30 * time.Second
	part, _, err := psort.Parallel(cfg, psort.RandomData(size, seed))
	spec.WriteShard(cfg.Trace)
	if err != nil {
		return launch.Report(fmt.Sprintf("bspsoak rank %d (epoch %d)", spec.Rank, spec.Epoch), err)
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("part-r%02d", spec.Rank)), f64bytes(part), 0o644); err != nil {
		return launch.Report("bspsoak rank", err)
	}
	return 0
}
