// Cross-process recovery conformance: the acceptance bar for the
// cluster transport is that a p=4 gang of real OS processes, crashed
// by the chaos fault and relaunched from checkpoints by the gang
// launcher, sorts bit-identically to a fault-free gang. The rank
// processes are this test binary re-executed: TestMain finds a
// launch.Spec in the environment before any test runs and becomes one
// rank of the gang.
package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/launch"
	"repro/internal/psort"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	e2eSize = 4000
	e2eSeed = 1996
)

func TestMain(m *testing.M) {
	spec, isChild, err := launch.FromEnv()
	switch {
	case err != nil:
		os.Exit(launch.Report("e2e rank", err))
	case isChild:
		os.Exit(runE2ERank(spec, os.Args[1]))
	}
	os.Exit(m.Run())
}

// runE2ERank is one OS process hosting one rank of the e2e gang; its
// partition of the sorted order lands in outDir.
func runE2ERank(spec launch.Spec, outDir string) int {
	// Leave a generation marker so the supervising test can assert which
	// ranks ran a second (relaunched) process and which survived in place.
	marker := filepath.Join(outDir, fmt.Sprintf("gen-e%d-r%d", spec.Epoch, spec.Rank))
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		return launch.Report("e2e rank", err)
	}
	cfg, err := spec.Config()
	if err != nil {
		return launch.Report("e2e rank", err)
	}
	cfg.SyncTimeout = 30 * time.Second
	part, _, err := psort.Parallel(cfg, psort.RandomData(e2eSize, e2eSeed))
	spec.WriteShard(cfg.Trace)
	if err != nil {
		return launch.Report(fmt.Sprintf("e2e rank %d (epoch %d)", spec.Rank, spec.Epoch), err)
	}
	// This process hosted one rank, so the concatenated result is
	// exactly its partition of the global order.
	var buf bytes.Buffer
	for _, v := range part {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	}
	if err := os.WriteFile(filepath.Join(outDir, partName(spec.Rank)), buf.Bytes(), 0o644); err != nil {
		return launch.Report("e2e rank", err)
	}
	return 0
}

func partName(rank int) string { return fmt.Sprintf("part-r%02d", rank) }

// e2eGang builds a gang launcher for rank processes (this test binary,
// re-executed) that write into outDir; every rank's spec also carries
// the chaos plan and the checkpoint, trace-shard and postmortem
// directories set in with. The caller runs it and may inspect its
// restart counters afterwards.
func e2eGang(t *testing.T, jobID, outDir string, with launch.Spec, warm bool, restarts int) *launch.Job {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	job := &launch.Job{
		P:           recoveryP,
		JobID:       jobID,
		MaxRestarts: restarts,
		Warm:        warm,
		Logf:        t.Logf,
		Command: func(spec launch.Spec) *exec.Cmd {
			spec.Chaos, spec.CheckpointDir = with.Chaos, with.CheckpointDir
			spec.ShardDir, spec.PostmortemDir = with.ShardDir, with.PostmortemDir
			cmd := exec.Command(exe, outDir)
			cmd.Env = append(os.Environ(), spec.Env())
			cmd.Stderr = os.Stderr
			return cmd
		},
	}
	if warm {
		job.HeartbeatInterval = 100 * time.Millisecond
		job.SuspectAfter = 2 * time.Second
	}
	return job
}

// baseline holds the per-rank partitions of one fault-free gang, run
// once per test process: the byte-identity reference of every faulted
// gang.
var baseline struct {
	once  sync.Once
	parts [][]byte
	err   error
}

func gangBaseline(t *testing.T) [][]byte {
	t.Helper()
	baseline.once.Do(func() {
		dir, err := os.MkdirTemp("", "e2e-baseline-")
		if err != nil {
			baseline.err = err
			return
		}
		defer os.RemoveAll(dir)
		if err := e2eGang(t, "e2e-clean", dir, launch.Spec{}, false, 0).Run(); err != nil {
			baseline.err = fmt.Errorf("fault-free gang failed: %w", err)
			return
		}
		total := 0
		for r := 0; r < recoveryP; r++ {
			b, err := os.ReadFile(filepath.Join(dir, partName(r)))
			if err != nil {
				baseline.err = fmt.Errorf("fault-free gang left no partition for rank %d: %w", r, err)
				return
			}
			baseline.parts = append(baseline.parts, b)
			total += len(b) / 8
		}
		if total != e2eSize {
			baseline.err = fmt.Errorf("fault-free partitions cover %d elements, want %d", total, e2eSize)
		}
	})
	if baseline.err != nil || len(baseline.parts) != recoveryP {
		t.Fatalf("no fault-free baseline gang: %v", baseline.err)
	}
	return baseline.parts
}

// comparePartitions asserts a faulted gang's per-rank partitions are
// byte-identical to the fault-free gang's.
func comparePartitions(t *testing.T, outDir string) {
	t.Helper()
	for r, want := range gangBaseline(t) {
		got, err := os.ReadFile(filepath.Join(outDir, partName(r)))
		if err != nil {
			t.Fatalf("recovered gang left no partition for rank %d: %v", r, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("rank %d partition differs after recovery (%d vs %d bytes)", r, len(got), len(want))
		}
	}
}

// checkCensus asserts, from the generation markers, that only rank
// relaunched (-1: none) ran a second, epoch-1 process.
func checkCensus(t *testing.T, outDir string, relaunched int) {
	t.Helper()
	for r := 0; r < recoveryP; r++ {
		_, err := os.Stat(filepath.Join(outDir, fmt.Sprintf("gen-e1-r%d", r)))
		if r == relaunched && err != nil {
			t.Errorf("crashed rank %d left no epoch-1 marker (never relaunched?)", r)
		}
		if r != relaunched && err == nil {
			t.Errorf("rank %d left an epoch-1 marker (was re-execed, not kept in place)", r)
		}
	}
}

// TestClusterCrashRecoveryBitIdentical: a crashed-and-recovered p=4
// cluster run — every rank its own OS process — produces per-rank
// partitions byte-identical to a fault-free cluster run.
func TestClusterCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gangs of OS processes")
	}
	crashDir := t.TempDir()
	job := e2eGang(t, "e2e-crash", crashDir, launch.Spec{Chaos: crashPlan().String(), CheckpointDir: t.TempDir()}, false, 2)
	if err := job.Run(); err != nil {
		t.Fatalf("crashed gang did not recover: %v", err)
	}
	// The crash must actually have cost a generation: epoch 0 ran, and
	// a relaunched epoch wrote the partitions.
	if _, err := os.Stat(filepath.Join(crashDir, "gen-e0-r0")); err != nil {
		t.Error("no marker from the crashed generation (epoch 0 never ran?)")
	}
	if _, err := os.Stat(filepath.Join(crashDir, "gen-e1-r0")); err != nil {
		t.Error("no marker from a relaunched generation (the crash never fired?)")
	}
	comparePartitions(t, crashDir)
}

// TestClusterWarmRecoveryRelaunchesExactlyOneRank: with warm recovery
// on, a single-rank crash costs exactly one process relaunch — the
// crashed rank's — while the survivors roll back in place from the
// latest complete cut and re-admit the newcomer at the fenced epoch.
func TestClusterWarmRecoveryRelaunchesExactlyOneRank(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gangs of OS processes")
	}
	warmCrash(t, "e2e-warm-crash", crashPlan())
}

// warmCrash crashes one rank of a warm p-process gang with plan and
// asserts everything the recovery promises: exactly one process
// relaunch (the crashed rank's) and no gang fallback, output
// byte-identical to the fault-free gang, a coherent telemetry plane, one
// complete postmortem bundle from the dead generation, and a merged
// trace that carries the crash and the rollback.
func warmCrash(t *testing.T, jobID string, plan transport.FaultPlan) {
	t.Helper()
	t.Logf("plan %s", plan)
	outDir, shardDir, postDir := t.TempDir(), t.TempDir(), t.TempDir()
	job := e2eGang(t, jobID, outDir, launch.Spec{
		Chaos: plan.String(), CheckpointDir: t.TempDir(), ShardDir: shardDir, PostmortemDir: postDir,
	}, true, 3)
	if err := job.Run(); err != nil {
		t.Fatalf("warm gang did not recover: %v", err)
	}
	if n := job.GangRelaunches(); n != 0 {
		t.Errorf("gang relaunches = %d, want 0 (warm recovery must be surgical)", n)
	}
	for r, n := range job.RankRestarts() {
		want := int64(0)
		if r == plan.CrashRank {
			want = 1
		}
		if n != want {
			t.Errorf("rank %d restarts = %d, want %d", r, n, want)
		}
	}
	checkCensus(t, outDir, plan.CrashRank)
	comparePartitions(t, outDir)
	checkTelemetry(t, job)
	checkPostmortem(t, postDir, plan)

	rec, err := trace.MergeShardDir(shardDir)
	if err != nil {
		t.Fatalf("merge trace shards: %v", err)
	}
	var chrome bytes.Buffer
	if err := rec.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Check(&chrome, trace.CheckOptions{Ranks: recoveryP, RequireCrash: true, RequireRollback: true}); err != nil {
		t.Errorf("merged trace: %v", err)
	}
}

// checkTelemetry asserts a warm gang's telemetry plane stayed coherent
// across the crash: every rank reported at least one beat with
// telemetry (the leave-time beat guarantees this even for short
// generations), a survivor that rolled back in place and rejoined is
// still one incarnation (its recorder did not restart, so counting it
// twice would double its totals), and the final per-rank
// last-superstep view is uniform — recovery left no rank's public
// progress behind.
func checkTelemetry(t *testing.T, job *launch.Job) {
	t.Helper()
	ranks := job.Status().Ranks
	if len(ranks) != recoveryP {
		t.Fatalf("final status covers %d ranks, want %d", len(ranks), recoveryP)
	}
	restarts := job.RankRestarts()
	for r, rs := range ranks {
		if rs.Baselines < 1 {
			t.Errorf("rank %d never reported telemetry", r)
		}
		if restarts[r] == 0 && rs.Baselines != 1 {
			t.Errorf("rank %d was never relaunched but counts %d incarnations: a rejoin was taken for a new recorder", r, rs.Baselines)
		}
		if rs.LastStep != ranks[0].LastStep {
			t.Errorf("final last-superstep diverges: rank %d at %d, rank 0 at %d", r, rs.LastStep, ranks[0].LastStep)
		}
	}
	if ranks[0].LastStep < 0 {
		t.Error("telemetry never saw a completed superstep")
	}
}

// checkPostmortem asserts the crash forensics of a warm gang: the dead
// generation left exactly one complete postmortem bundle — one epoch-0
// dump per rank, no duplicates from the dump broadcast racing the local
// failure path — every survivor's dump names the convicted rank, and
// the dumps agree on the failing superstep.
func checkPostmortem(t *testing.T, postDir string, plan transport.FaultPlan) {
	t.Helper()
	if _, err := trace.GatherBundle(postDir); err != nil {
		t.Fatalf("gather postmortem bundle: %v", err)
	}
	dumps, err := trace.CheckBundle(postDir)
	if err != nil {
		t.Fatalf("postmortem bundle: %v", err)
	}
	if len(dumps) != recoveryP {
		t.Errorf("postmortem bundle has %d dumps, want exactly one per rank (%d)", len(dumps), recoveryP)
	}
	// The injected crash fires in 0-based superstep CrashStep-1.
	failStep := plan.CrashStep - 1
	for _, d := range dumps {
		if d.Epoch != 0 {
			t.Errorf("rank %d dumped at epoch %d, want 0: only the dead generation dumps", d.Rank, d.Epoch)
		}
		if d.Rank == plan.CrashRank {
			for _, e := range d.Events {
				if e.Kind == trace.KindFault && trace.FaultCode(e.A) == trace.FaultCrash && int(e.Step) != failStep {
					t.Errorf("crashed rank's ring has the fault at superstep %d, want %d", e.Step, failStep)
				}
			}
			continue
		}
		if !strings.Contains(d.Reason, fmt.Sprintf("rank %d", plan.CrashRank)) {
			t.Errorf("survivor rank %d's dump reason %q does not name the convicted rank %d", d.Rank, d.Reason, plan.CrashRank)
		}
		// A survivor is blocked in the failing superstep's barrier when
		// it dumps: its last recorded barrier is failStep-1, or one
		// earlier if the dump frame won the race against the recording
		// of the barrier it just completed.
		if last := d.LastCompletedStep(); last < failStep-2 || last > failStep-1 {
			t.Errorf("survivor rank %d's last completed superstep %d disagrees with the failing superstep %d", d.Rank, last, failStep)
		}
	}
}
