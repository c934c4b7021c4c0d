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
	"testing"
	"time"

	"repro/internal/launch"
	"repro/internal/psort"
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
	// Leave a generation marker so the supervising test can assert the
	// crashed generation really ran and a second one really launched.
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
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("part-r%02d", spec.Rank)), buf.Bytes(), 0o644); err != nil {
		return launch.Report("e2e rank", err)
	}
	return 0
}

// e2eGang builds a gang launcher for rank processes (this test binary,
// re-executed); the caller runs it and may inspect its restart
// counters afterwards.
func e2eGang(t *testing.T, jobID, outDir, ckptDir string, chaos, warm bool, restarts int) *launch.Job {
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
			spec.CheckpointDir = ckptDir
			if chaos {
				spec.Chaos = crashPlan().String()
			}
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

// runE2EGang launches one gang and returns the launcher error.
func runE2EGang(t *testing.T, jobID, outDir, ckptDir string, chaos bool, restarts int) error {
	t.Helper()
	return e2eGang(t, jobID, outDir, ckptDir, chaos, false, restarts).Run()
}

// TestClusterCrashRecoveryBitIdentical: a crashed-and-recovered p=4
// cluster run — every rank its own OS process — produces per-rank
// partitions byte-identical to a fault-free cluster run.
func TestClusterCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 2 gangs of OS processes")
	}
	cleanDir, crashDir := t.TempDir(), t.TempDir()
	if err := runE2EGang(t, "e2e-clean", cleanDir, "", false, 0); err != nil {
		t.Fatalf("fault-free gang failed: %v", err)
	}
	if err := runE2EGang(t, "e2e-crash", crashDir, t.TempDir(), true, 2); err != nil {
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
	comparePartitions(t, cleanDir, crashDir)
}

// comparePartitions asserts the recovered gang's per-rank partitions
// are byte-identical to the fault-free gang's and cover the input.
func comparePartitions(t *testing.T, cleanDir, gotDir string) {
	t.Helper()
	total := 0
	for r := 0; r < recoveryP; r++ {
		name := fmt.Sprintf("part-r%02d", r)
		want, err := os.ReadFile(filepath.Join(cleanDir, name))
		if err != nil {
			t.Fatalf("fault-free gang left no partition for rank %d: %v", r, err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatalf("recovered gang left no partition for rank %d: %v", r, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("rank %d partition differs after recovery (%d vs %d bytes)", r, len(want), len(got))
		}
		total += len(want) / 8
	}
	if total != e2eSize {
		t.Errorf("partitions cover %d elements, want %d", total, e2eSize)
	}
}

// TestClusterWarmRecoveryRelaunchesExactlyOneRank: with warm recovery
// on, a single-rank crash costs exactly one process relaunch — the
// crashed rank's — while the survivors roll back in place from the
// latest complete cut and re-admit the newcomer at the fenced epoch.
// The output stays byte-identical to a fault-free gang.
func TestClusterWarmRecoveryRelaunchesExactlyOneRank(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 2 gangs of OS processes")
	}
	crashed := crashPlan().CrashRank
	cleanDir, warmDir := t.TempDir(), t.TempDir()
	if err := runE2EGang(t, "e2e-warm-clean", cleanDir, "", false, 0); err != nil {
		t.Fatalf("fault-free gang failed: %v", err)
	}
	job := e2eGang(t, "e2e-warm-crash", warmDir, t.TempDir(), true, true, 3)
	if err := job.Run(); err != nil {
		t.Fatalf("warm gang did not recover: %v", err)
	}

	// Surgical recovery: one relaunch, of the crashed rank, no gang
	// fallback.
	if n := job.GangRelaunches(); n != 0 {
		t.Errorf("gang relaunches = %d, want 0 (warm recovery must be surgical)", n)
	}
	for r, n := range job.RankRestarts() {
		want := int64(0)
		if r == crashed {
			want = 1
		}
		if n != want {
			t.Errorf("rank %d restarts = %d, want %d", r, n, want)
		}
	}
	// The process census agrees with the counters: only the crashed
	// rank ever ran as a second (epoch 1) process; the survivors' only
	// processes are the epoch-0 ones.
	for r := 0; r < recoveryP; r++ {
		_, err := os.Stat(filepath.Join(warmDir, fmt.Sprintf("gen-e1-r%d", r)))
		if r == crashed && err != nil {
			t.Errorf("crashed rank %d left no epoch-1 marker (never relaunched?)", r)
		}
		if r != crashed && err == nil {
			t.Errorf("surviving rank %d left an epoch-1 marker (was re-execed, not rolled back in place)", r)
		}
	}
	comparePartitions(t, cleanDir, warmDir)
}
