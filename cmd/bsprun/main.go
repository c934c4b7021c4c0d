// Command bsprun executes one application configuration on a chosen
// transport and reports the BSP program parameters and the cost-model
// predictions for the paper's three machines.
//
// Usage:
//
//	bsprun -app nbody -size 1000 -p 8 -transport shm
//
// Any transport (including "chaos:<base>" from the registry) can run
// under seeded fault injection with -chaos, which wraps the transport
// in a transport.ChaosTransport; -sync-timeout bounds each superstep so
// an injected stall surfaces as a clean timeout error instead of a
// hang:
//
//	bsprun -app mm -size 128 -p 4 -transport tcp \
//	    -chaos "seed=42,delay=0.1,maxdelay=2ms,connerr=0.05" \
//	    -sync-timeout 10s
//
// With -checkpoint-dir the run recovers from crash faults, aborts and
// timeouts: apps with checkpoint hooks (ocean, psort) snapshot their
// state at superstep boundaries and roll back to the latest complete
// cut, the others re-execute from superstep 0; -resume continues from
// the latest complete snapshot of an earlier invocation:
//
//	bsprun -app psort -size 16000 -p 4 -transport tcp \
//	    -chaos crash=1:3 -checkpoint-dir /tmp/ckpt -checkpoint-every 2 -resume
//
// Observability: -trace writes the run's per-superstep timeline as
// Chrome trace-event JSON (open in Perfetto or chrome://tracing; one
// track per rank, superstep spans over compute/sync slices, batch
// handoffs, checkpoint saves/restores, chaos faults and rollbacks);
// -metrics-addr serves live counters while the machine runs
// (Prometheus text at /metrics, expvar JSON at /debug/vars, live
// profiles at /debug/pprof/); -cost-report prints the per-superstep
// predicted-vs-recorded residuals of Equation 1 for the machine named
// by -cost-machine — and, for apps that register a cost report (the
// sample sort: per-superstep W and H terms, the (1+1/ℓ)·n/p imbalance
// bound and the Bilardi et al. H lower bound next to the measured H),
// the app's own predicted cost shape:
//
//	bsprun -app ocean -size 34 -p 4 -transport shm \
//	    -trace trace.json -metrics-addr localhost:8080 -cost-report
//
// The trace file is written even when the run fails, so a crashed or
// wedged machine leaves its timeline behind for diagnosis.
//
// Profiling: every rank goroutine carries one pprof label, bsp_rank.
// -cpuprofile and -memprofile write the standard pprof files and
// -runtime-trace a `go tool trace` capture. Slice a CPU profile by rank
// with a tag filter and by phase with the call stack (the superstep
// axis comes from -trace, which is exact rather than sampled):
//
//	bsprun -app psort -size 400000 -p 4 -cpuprofile cpu.pprof
//	go tool pprof -tagfocus 'bsp_rank=^2$' cpu.pprof
//	go tool pprof -focus 'transport\.\(\*exchange\)\.Sync' cpu.pprof
//
// Exit codes classify failures for CI: 1 = run or usage error, 2 =
// superstep timeout (the per-rank progress detail is printed), 3 =
// abort or injected crash.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/harness"
	"repro/internal/launch"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	app := flag.String("app", "nbody", "application: "+strings.Join(apps.Names(), "|"))
	size := flag.Int("size", 1000, "input size (paper conventions per app)")
	p := flag.Int("p", 4, "number of BSP processes")
	trName := flag.String("transport", "shm", "transport: shm|xchg|tcp|sim|cluster|chaos:<base>")
	cluster := flag.Bool("cluster", false, "run each rank as its own OS process over loopback TCP (self-exec fan-out; supersedes -transport); combines with -chaos and -checkpoint-dir for gang-level crash recovery")
	chaosSpec := flag.String("chaos", "", "fault-injection plan, e.g. \"seed=42,delay=0.1,maxdelay=2ms,stall=0.05,stallfor=20ms,connerr=0.05,abort=1@3,crash=1:3\"; empty disables")
	syncTimeout := flag.Duration("sync-timeout", 0, "abort the run if no process completes a superstep for this long (0 disables)")
	ckptDir := flag.String("checkpoint-dir", "", "snapshot directory; arms crash recovery (apps with checkpoint hooks resume from superstep snapshots, the others re-execute from scratch)")
	hbInterval := flag.Duration("heartbeat-interval", 0, "cluster liveness heartbeat period on the control plane (0 = 500ms default, negative disables)")
	suspectAfter := flag.Duration("suspect-after", 0, "declare a connected-but-silent cluster rank crashed after this long without a heartbeat (0 = 5s default, negative disables)")
	ckptEvery := flag.Int("checkpoint-every", 1, "snapshot every Nth eligible superstep boundary")
	resume := flag.Bool("resume", false, "continue from the latest complete snapshot in -checkpoint-dir")
	postDir := flag.String("postmortem-dir", "", "crash-forensics bundle directory: on a failed run every rank dumps its always-on flight ring, metrics and goroutine stacks here (analyze with bsppost); empty arms a per-PID default under $TMPDIR for -cluster runs and stays off otherwise; \"none\" disables")
	traceFile := flag.String("trace", "", "write the run's timeline as Chrome trace-event JSON to this file (open in Perfetto)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP: Prometheus text at /metrics, expvar JSON at /debug/vars, profiles at /debug/pprof/; with -cluster, rank r serves on port+r (port 0: each rank picks a free port, reported in /status)")
	statusAddr := flag.String("status-addr", "", "with -cluster: serve the coordinator's aggregated live view over HTTP — job-level JSON at /status, rank-labeled Prometheus text at /metrics (watch with bsptop)")
	telemetryInterval := flag.Duration("telemetry-interval", 0, "with -cluster: how often each rank pushes its metrics snapshot to the coordinator (0 = 250ms when -status-addr is set, else off)")
	statusDump := flag.String("status-dump", "", "with -cluster -status-addr: write the final /status JSON document to this file when the job ends")
	costReport := flag.Bool("cost-report", false, "print per-superstep predicted-vs-recorded cost-model residuals")
	costMachine := flag.String("cost-machine", "SGI", "machine profile for -cost-report: SGI|Cenju|PC")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (samples carry a bsp_rank label)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	rtraceFile := flag.String("runtime-trace", "", "write a runtime/trace capture to this file (open with `go tool trace`)")
	flag.Parse()

	// Resolve the program before any listener, coordinator or rank
	// process exists: a typo fails once, here, not p times in the gang.
	prog, err := apps.Lookup(*app)
	if err == nil {
		err = prog.CheckP(*p)
	}
	if err != nil {
		fail(err)
	}
	child, isChild, err := launch.FromEnv()
	if err != nil {
		fail(err)
	}
	if *cluster && !isChild {
		// The postmortem bundle is on by default for cluster runs: the
		// flight recorder is free (fixed ring, no allocations) and a
		// multi-process gang is exactly where a dead run is otherwise
		// hardest to diagnose.
		dir := *postDir
		if dir == "" {
			dir = filepath.Join(os.TempDir(), fmt.Sprintf("bsprun-postmortem-%d", os.Getpid()))
		}
		if dir == "none" {
			dir = ""
		}
		runClusterLauncher(launcherFlags{
			app: *app, size: *size, p: *p,
			chaosSpec: *chaosSpec, ckptDir: *ckptDir,
			traceFile: *traceFile, metricsAddr: *metricsAddr,
			costReport: *costReport, costMachine: *costMachine,
			cpuProfile: *cpuProfile, memProfile: *memProfile,
			rtraceFile: *rtraceFile,
			hbInterval: *hbInterval, suspectAfter: *suspectAfter,
			postDir:    dir,
			statusAddr: *statusAddr, statusDump: *statusDump,
			telemetryInterval: *telemetryInterval,
		})
		return
	}
	// Children re-parse the launcher's argv, so the launcher-only status
	// flags are legal for them (and ignored: the coordinator side lives
	// in the launcher process).
	if !isChild && (*statusAddr != "" || *statusDump != "" || *telemetryInterval != 0) {
		fail(errors.New("-status-addr/-telemetry-interval/-status-dump aggregate a gang's telemetry; they need -cluster"))
	}
	var cfg core.Config
	var metricsLn net.Listener
	pmDir := ""
	if isChild {
		// A cluster child hosts exactly one rank: its machine — gang
		// membership, chaos (wrapping again here would double-inject every
		// fault), retry policy, the launcher's shard and postmortem
		// directories — comes from the spec the launcher handed down. The
		// launcher also owns the merged artifacts, so the per-process
		// report flags are neutralized.
		if child.P != *p {
			fail(fmt.Errorf("cluster child: launched for p=%d but -p is %d", child.P, *p))
		}
		if child.MetricsAddr != "" {
			// Pre-bind before joining: a ":0" address resolves to a real
			// port here, and the resolved address rides the telemetry
			// plane to the coordinator's /status. Binding first also
			// turns a port collision into a clean join-time failure.
			if metricsLn, err = net.Listen("tcp", child.MetricsAddr); err != nil {
				fail(fmt.Errorf("cluster child rank %d: bind metrics address: %w", child.Rank, err))
			}
			child.MetricsAddr = metricsLn.Addr().String()
		}
		if cfg, err = child.Config(); err != nil {
			fail(err)
		}
		if cfg.Checkpoint != nil {
			cfg.Checkpoint.Every = *ckptEvery
			cfg.Checkpoint.Resume = cfg.Checkpoint.Resume || *resume
		}
		*metricsAddr = child.MetricsAddr
		*costReport = false
	} else {
		tr, err := transport.New(*trName)
		if err != nil {
			fail(err)
		}
		if *chaosSpec != "" {
			plan, err := transport.ParseFaultPlan(*chaosSpec)
			if err != nil {
				fail(err)
			}
			// NewChaosTransport: an armed crash fires once, so a recovered
			// re-execution of the same run proceeds fault-free.
			ct := transport.NewChaosTransport(tr, plan)
			tr = ct
			fmt.Printf("fault injection on (%s): %s\n", ct.Name(), plan)
		}
		cfg = core.Config{P: *p, Transport: tr}
		if *ckptDir != "" {
			cfg.Checkpoint = &core.CheckpointConfig{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume}
		}
		// Crash forensics: a standalone run dumps only when
		// -postmortem-dir names a directory. Arming Postmortem while
		// cfg.Trace is nil auto-arms the zero-allocation flight recorder,
		// so a production run pays nothing for this.
		if pmDir = *postDir; pmDir == "none" {
			pmDir = ""
		}
		if pmDir != "" {
			cfg.Postmortem = &core.PostmortemConfig{Dir: pmDir, Job: fmt.Sprintf("bsprun-%s-p%d", *app, *p)}
		}
	}
	cfg.SyncTimeout = *syncTimeout
	// gatherPostmortem indexes whatever dumps the run left (a recovered
	// run keeps the failed attempt's) — the launcher does this for a
	// gang, so children skip it.
	gatherPostmortem := func() {
		if isChild || cfg.Postmortem == nil {
			return
		}
		man, gerr := trace.GatherBundle(pmDir)
		if gerr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: gather postmortem bundle:", gerr)
			return
		}
		if len(man.Dumps) > 0 {
			fmt.Printf("postmortem bundle: %d dump(s) in %s (analyze with bsppost)\n", len(man.Dumps), pmDir)
		}
	}
	machine := cost.SGI
	if *costReport {
		if machine, err = cost.MachineByName(*costMachine); err != nil {
			fail(err)
		}
	}
	// Any observability consumer arms the recorder; otherwise cfg.Trace
	// stays nil and every instrumentation site is a nil check.
	rec := cfg.Trace
	if rec == nil && (*traceFile != "" || *metricsAddr != "" || *costReport) {
		rec = trace.New(*p)
		cfg.Trace = rec
	}
	if isChild && child.Resume && child.Rank == 0 && rec != nil && *ckptDir != "" {
		// A gang-level rollback spans processes, so no single child's
		// RunRecoverable records it. Mark it once, on the resuming
		// generation's rank-0 shard, so the merged trace shows the
		// generation boundary and the superstep it resumed from.
		if step, _, ok := (&ckpt.Store{Dir: *ckptDir}).LoadComplete(*p); ok {
			rec.Rollback(child.Epoch+1, step)
		}
	}
	writeTrace := func() {
		if isChild {
			// The launcher merges the per-rank shards into the -trace
			// file once the gang is done.
			child.WriteShard(rec)
			return
		}
		if *traceFile == "" {
			return
		}
		if werr := rec.WriteChromeFile(*traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: write trace:", werr)
		} else {
			fmt.Printf("trace written to %s (open in Perfetto or chrome://tracing)\n", *traceFile)
		}
	}
	var metrics *metricsServer
	if metricsLn != nil {
		if metrics, err = startMetricsServerOn(metricsLn, rec); err != nil {
			fail(err)
		}
		fmt.Printf("live metrics on http://%s/metrics (Prometheus text), /debug/vars (expvar JSON), /debug/pprof/ (profiles)\n", metrics.Addr())
	} else if *metricsAddr != "" {
		if metrics, err = startMetricsServer(*metricsAddr, rec); err != nil {
			fail(err)
		}
		fmt.Printf("live metrics on http://%s/metrics (Prometheus text), /debug/vars (expvar JSON), /debug/pprof/ (profiles)\n", metrics.Addr())
	}
	shutdownMetrics := func() {
		if metrics == nil {
			return
		}
		if serr := metrics.Shutdown(5 * time.Second); serr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: metrics server:", serr)
		}
		metrics = nil
	}
	captures, err := startCaptures(*cpuProfile, *memProfile, *rtraceFile)
	if err != nil {
		fail(err)
	}
	// Live run on the requested transport for wall time and correctness.
	t0 := time.Now()
	_, st, err := prog.New(*size).Run(cfg)
	if err != nil {
		// A failed run still leaves its timeline and profiles behind:
		// they show where the machine died.
		captures.stop()
		captures.writeMem()
		writeTrace()
		gatherPostmortem()
		shutdownMetrics()
		fail(err)
	}
	wall := time.Since(t0)
	captures.stop()
	captures.writeMem()
	writeTrace()
	gatherPostmortem()
	shutdownMetrics()
	if isChild {
		// The per-rank line; the launcher prints the gang summary and
		// the model block once.
		fmt.Printf("%s size=%d rank %d/%d of %s (epoch %d): wall %v, %s\n",
			*app, *size, child.Rank, child.P, child.JobID, child.Epoch, wall, st)
		if ck := st.Ckpt; ck != nil && (ck.Attempts > 1 || ck.ResumeStep > 0) {
			fmt.Printf("  recovery: resumed at superstep %d\n", ck.ResumeStep)
		}
		return
	}
	fmt.Printf("%s size=%d p=%d on %s: wall %v, %s\n", *app, *size, *p, *trName, wall, st)
	if ck := st.Ckpt; ck != nil {
		fmt.Printf("  checkpoints: %d snapshot(s), %d complete cut(s), %d bytes in %v (+%v flush)",
			ck.Snapshots, ck.Cuts, ck.Bytes, ck.Time, ck.Flush)
		if ck.Err != nil {
			fmt.Printf(", first error: %v", ck.Err)
		}
		fmt.Println()
		if ck.Attempts > 1 || ck.ResumeStep > 0 {
			fmt.Printf("  recovery: %d attempt(s), final attempt resumed at superstep %d\n",
				ck.Attempts, ck.ResumeStep)
		}
	}
	if *costReport {
		trace.WriteResidualReport(os.Stdout, rec, machine.Name, machine.Params(*p), 3)
		if prog.CostReport != nil {
			prog.CostReport(os.Stdout, machine.Name, machine.Params(*p), *size, *p, st)
		}
	}
	if err := printModelBlock(*app, *size, *p, st); err != nil {
		fail(err)
	}
}

// printModelBlock re-measures the program on the sim transport for the
// deterministic work parameters and prints the cost-model predictions
// for the paper's machines. st (the live run's statistics) may be nil:
// the cluster launcher has no single-process view of the gang.
func printModelBlock(app string, size, p int, st *core.Stats) error {
	rows, err := harness.Collect(app, []int{size}, []int{1, p})
	if err != nil {
		return err
	}
	var base, run harness.Row
	for _, r := range rows {
		if r.NP == 1 {
			base = r
		}
		if r.NP == p {
			run = r
		}
	}
	fmt.Printf("  sim measurement: W = %v   H = %d   S = %d   total work = %v\n",
		run.W, run.H, run.S, run.TotalWork)
	if st != nil && st.LoadImbalance() > 0 {
		fmt.Printf("  load imbalance (work depth / ideal): %.2f\n", st.LoadImbalance())
	}
	fmt.Printf("  sequential baseline: %v\n", run.SeqTime)
	for _, m := range cost.PaperMachines() {
		if !m.Supports(p) {
			fmt.Printf("  %-5s: not available at %d processors\n", m.Name, p)
			continue
		}
		fmt.Printf("  %-5s: predicted %v (comm %v), model speed-up %.1f\n",
			m.Name, run.Predict(m), run.PredictComm(m), run.Speedup(m, base))
	}
	return nil
}

// fail prints err and exits with a code CI can classify: timeouts
// (with the watchdog's per-rank progress report) exit 2, aborts and
// injected crashes exit 3, everything else 1.
func fail(err error) {
	os.Exit(launch.Report("bsprun", err))
}
