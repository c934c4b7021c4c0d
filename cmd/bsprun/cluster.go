package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/cost"
	"repro/internal/launch"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The -cluster launcher self-execs one bsprun process per rank and
// hands each its slot as a launch.Spec. A process that finds one in its
// environment runs as a cluster child: it builds its machine from
// spec.Config() instead of opening an in-process transport, and it
// re-parses the launcher's own command line, so every -app/-size/
// -sync-timeout/-checkpoint-every flag means the same thing in both
// roles.

// launchCluster supervises the gang: one OS process per rank, relaunch
// from checkpoints on recoverable failures, and a merged trace from
// whatever shards the children left behind (a partial timeline of a
// failed gang still shows where it died). Returns the gang wall time,
// the merged recorder (nil without -trace), the finished job (for its
// final status document) and the run error.
func launchCluster(o launcherFlags) (time.Duration, *trace.Recorder, *launch.Job, error) {
	shardDir := ""
	if o.traceFile != "" {
		shardDir = o.traceFile + ".shards"
		if err := os.RemoveAll(shardDir); err != nil {
			return 0, nil, nil, err
		}
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return 0, nil, nil, err
		}
	}
	if o.postDir != "" {
		// A fresh bundle per invocation: stale dumps from an earlier run
		// would corrupt the root-cause report.
		if err := os.RemoveAll(o.postDir); err != nil {
			return 0, nil, nil, err
		}
		if err := os.MkdirAll(o.postDir, 0o755); err != nil {
			return 0, nil, nil, err
		}
	}
	metricsOn, metricsHost, metricsBase := false, "", 0
	if o.metricsAddr != "" {
		host, portStr, err := net.SplitHostPort(o.metricsAddr)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("-cluster -metrics-addr must be host:port (rank r serves on port+r; port 0 = each rank picks a free port): %w", err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil || port < 0 {
			return 0, nil, nil, fmt.Errorf("-cluster -metrics-addr needs a numeric base port (rank r serves on port+r; 0 = each rank picks a free port), got %q", portStr)
		}
		metricsOn, metricsHost, metricsBase = true, host, port
	}
	// Without checkpoints or injected faults a relaunch would just
	// repeat the same failure; with them, a crashed generation resumes
	// from the latest complete cut.
	restarts := 0
	if o.ckptDir != "" || o.chaosSpec != "" {
		restarts = 3
	}
	// The telemetry plane rides the existing control connections; arming
	// the status server without an explicit interval picks a default
	// that keeps each frame under ~100 bytes / 4 pushes per second.
	telemetry := o.telemetryInterval
	if o.statusAddr != "" && telemetry == 0 {
		telemetry = 250 * time.Millisecond
	}
	job := &launch.Job{
		P:                 o.p,
		JobID:             fmt.Sprintf("bsprun-%s-p%d-%d", o.app, o.p, os.Getpid()),
		MaxRestarts:       restarts,
		StatusAddr:        o.statusAddr,
		TelemetryInterval: telemetry,
		// Warm recovery needs a shared checkpoint cut for the survivors
		// to roll back to; without one, recovery stays gang-relaunch.
		Warm:              o.ckptDir != "",
		HeartbeatInterval: o.hbInterval,
		SuspectAfter:      o.suspectAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bsprun: %s\n", fmt.Sprintf(format, args...))
		},
		Command: func(spec launch.Spec) *exec.Cmd {
			spec.Chaos, spec.CheckpointDir = o.chaosSpec, o.ckptDir
			spec.ShardDir, spec.PostmortemDir = shardDir, o.postDir
			if metricsOn {
				// Base port 0 stays 0 for every rank: each child binds
				// ":0", resolves its own free port, and reports the bound
				// address over the telemetry plane (shown in /status).
				port := 0
				if metricsBase > 0 {
					port = metricsBase + spec.Rank
				}
				spec.MetricsAddr = net.JoinHostPort(metricsHost, strconv.Itoa(port))
			}
			cmd := exec.Command(os.Args[0], os.Args[1:]...)
			cmd.Env = append(os.Environ(), spec.Env())
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			return cmd
		},
	}
	t0 := time.Now()
	runErr := job.Run()
	wall := time.Since(t0)
	if o.statusDump != "" {
		// The final /status document, captured at job end — the same
		// shape bsptop and tracecheck consume from a live coordinator.
		b, werr := json.MarshalIndent(job.Status(), "", "  ")
		if werr == nil {
			werr = os.WriteFile(o.statusDump, b, 0o644)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: write status dump:", werr)
		} else {
			fmt.Printf("final status written to %s (render with bsptop -status %s -once)\n", o.statusDump, o.statusDump)
		}
	}
	if o.postDir != "" {
		// Gather whatever dumps the children left — also after a
		// successful run, which may have recovered over a failed epoch
		// whose forensics are worth keeping.
		if man, gerr := trace.GatherBundle(o.postDir); gerr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: gather postmortem bundle:", gerr)
		} else if len(man.Dumps) > 0 {
			fmt.Printf("postmortem bundle: %d dump(s) in %s (analyze with bsppost)\n", len(man.Dumps), o.postDir)
		}
	}
	var rec *trace.Recorder
	if shardDir != "" {
		var merr error
		if rec, merr = trace.MergeShardDir(shardDir); merr != nil {
			if runErr == nil {
				runErr = merr
			} else {
				fmt.Fprintln(os.Stderr, "bsprun: merge trace shards:", merr)
			}
		}
	}
	return wall, rec, job, runErr
}

// printCalibration reports the live (g, L) fit and — when a merged
// trace is available — cross-checks it post hoc: the same Eq-1
// actual/predicted ratio recomputed from the full per-superstep
// timeline under the live-fitted parameters. On a clean run the two
// views see the same machine, so they must agree within 20%.
func printCalibration(doc transport.StatusDoc, rec *trace.Recorder) {
	sum := doc.Calib
	if sum.Window == 0 { // telemetry off, or no completed superstep observed
		return
	}
	if !sum.Fit {
		fmt.Printf("live calibration: degenerate fit over %d interval(s) (constant h cannot identify g); L ~ %.1f µs\n",
			sum.Window, sum.LUs)
		return
	}
	fmt.Printf("live calibration: g = %.3f µs/pkt, L = %.1f µs over %d interval(s); live Eq-1 ratio %.3f\n",
		sum.GUsPerPkt, sum.LUs, sum.Window, sum.LiveRatio)
	if rec == nil || sum.LiveRatio == 0 {
		return
	}
	var actual, predicted float64
	for _, r := range trace.Residuals(rec, cost.Params{G: sum.GUsPerPkt, L: sum.LUs}) {
		actual += float64(r.Actual)
		predicted += float64(r.Predicted)
	}
	if predicted <= 0 {
		return
	}
	post := actual / predicted
	verdict := "agreement ok"
	if math.Abs(sum.LiveRatio-post) > 0.2*post {
		verdict = "agreement DIVERGED"
	}
	fmt.Printf("  post-hoc Eq-1 ratio under the live fit: %.3f (live %.3f) — %s\n", post, sum.LiveRatio, verdict)
}

// rejectClusterProfileFlags guards the launcher against per-process
// capture flags that cannot describe a multi-process gang.
func rejectClusterProfileFlags(cpuProfile, memProfile, rtraceFile string) error {
	if cpuProfile != "" || memProfile != "" || rtraceFile != "" {
		return errors.New("-cluster cannot capture gang-wide profiles into one file; use -metrics-addr for per-rank /debug/pprof endpoints, or profile without -cluster")
	}
	return nil
}

// launcherFlags carries the parsed command line into the launcher.
type launcherFlags struct {
	app                                string
	size, p                            int
	chaosSpec, ckptDir                 string
	traceFile, metricsAddr, postDir    string
	costReport                         bool
	costMachine                        string
	cpuProfile, memProfile, rtraceFile string
	hbInterval, suspectAfter           time.Duration
	statusAddr, statusDump             string
	telemetryInterval                  time.Duration
}

// runClusterLauncher is bsprun's -cluster entry point: it validates
// the flags a gang cannot honor, supervises the rank processes, merges
// their trace shards, and prints the same summary and model block the
// in-process path does.
func runClusterLauncher(f launcherFlags) {
	if err := rejectClusterProfileFlags(f.cpuProfile, f.memProfile, f.rtraceFile); err != nil {
		fail(err)
	}
	if f.chaosSpec != "" {
		// Validate here so a bad spec fails once, not p times.
		plan, err := transport.ParseFaultPlan(f.chaosSpec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("fault injection on (cluster): %s\n", plan)
	}
	if f.costReport && f.traceFile == "" {
		fail(errors.New("-cluster -cost-report reads the merged trace; add -trace <file>"))
	}
	wall, rec, job, err := launchCluster(f)
	if rec != nil && f.traceFile != "" {
		if werr := rec.WriteChromeFile(f.traceFile); werr != nil {
			fmt.Fprintln(os.Stderr, "bsprun: write merged trace:", werr)
		} else {
			fmt.Printf("merged trace written to %s (open in Perfetto or chrome://tracing)\n", f.traceFile)
		}
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s size=%d p=%d on cluster: wall %v (%d rank process(es) over loopback TCP)\n",
		f.app, f.size, f.p, wall, f.p)
	if job != nil {
		printCalibration(job.Status(), rec)
	}
	if f.costReport {
		machine, err := cost.MachineByName(f.costMachine)
		if err != nil {
			fail(err)
		}
		trace.WriteResidualReport(os.Stdout, rec, machine.Name, machine.Params(f.p), 3)
	}
	if err := printModelBlock(f.app, f.size, f.p, nil); err != nil {
		fail(err)
	}
}
