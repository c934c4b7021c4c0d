// End-to-end recovery conformance: on every transport, a run that is
// hard-crashed mid-machine by the chaos crash fault and recovered
// through core.Run must produce output bit-identical to a fault-free
// run — the whole point of barrier-granular checkpointing.
// This lives in package ckpt_test (external) so it can drive core, the
// transports and the applications that keep state together without an
// import cycle.
package ckpt_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ocean"
	"repro/internal/psort"
	"repro/internal/transport"
)

const recoveryP = 4

func baseTransports() map[string]transport.Transport {
	return map[string]transport.Transport{
		"shm":     transport.ShmTransport{},
		"xchg":    transport.XchgTransport{},
		"tcp":     transport.TCPTransport{},
		"sim":     transport.SimTransport{},
		"cluster": transport.ClusterTransport{},
	}
}

// crashPlan kills rank 1 in superstep 3 — for psort at p=4 that is the
// splitter-broadcast superstep, after two complete snapshot cuts exist.
func crashPlan() transport.FaultPlan {
	return transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3}
}

// boundaryCrashes kills a rank in each of psort's four supersteps in
// turn, at p = 3 (whose merge carries an odd run past a level) and at
// p = 4: rank 1, and the last rank. On sim the ranks run one at a time
// in rank order and capture a boundary's cut after the barrier, when
// the token reaches them, so a crash of rank r in superstep s comes
// before the ranks above r have captured cut s−1: the run resumes at
// boundary s−2 after rank 1's crash and at s−1 after the last rank's
// (never below 0). From boundary 2 on, the resumed ranks
// reach the merge without the scratch run their radix sort would have
// left behind.
func boundaryCrashes() (crashes []boundaryCrash) {
	for _, p := range []int{3, 4} {
		for _, rank := range []int{1, p - 1} {
			for step := 1; step <= 4; step++ {
				crashes = append(crashes, boundaryCrash{p, transport.FaultPlan{Seed: 1, CrashRank: rank, CrashStep: step}})
			}
		}
	}
	return crashes
}

// boundaryCrash is one row of boundaryCrashes: a machine size and the
// crash it suffers.
type boundaryCrash struct {
	p    int
	plan transport.FaultPlan
}

func ckptConfig(t *testing.T, tr transport.Transport) core.Config {
	t.Helper()
	return core.Config{
		P:         recoveryP,
		Transport: tr,
		Checkpoint: &core.CheckpointConfig{
			Dir:     t.TempDir(),
			Every:   1,
			Backoff: time.Millisecond,
		},
	}
}

// TestRecoveryConformance: crashed-and-recovered psort equals fault-free
// psort, bit for bit, on all four transports.
func TestRecoveryConformance(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.SimTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range baseTransports() {
		t.Run(name, func(t *testing.T) {
			cfg := ckptConfig(t, transport.NewChaosTransport(base, crashPlan()))
			got, st, err := psort.Parallel(cfg, data)
			if err != nil {
				t.Fatalf("recoverable run failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("recovered output has %d elements, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("recovered output differs at %d: %v != %v", i, got[i], want[i])
				}
			}
			ck := st.Ckpt
			if ck == nil {
				t.Fatal("Stats.Ckpt is nil with checkpointing armed")
			}
			if ck.Attempts < 2 {
				t.Fatalf("Attempts = %d, want >= 2 (the crash must have fired)", ck.Attempts)
			}
			if ck.ResumeStep < 1 {
				t.Fatalf("ResumeStep = %d, want >= 1 (recovery must resume from a snapshot, not scratch)", ck.ResumeStep)
			}
			if ck.Cuts < 2 || ck.Snapshots < ck.Cuts*recoveryP {
				t.Fatalf("implausible capture stats: %+v", ck)
			}
		})
	}
}

// TestRecoveryStatsSteps: the Stats of a recovered run describe the
// final attempt only — a machine resumed from superstep k reports
// Syncs = S-k and per-superstep records aligned with the tail of a
// fault-free run. The deterministic fields (packets, work units,
// h-relation sizes) must match the baseline's supersteps k..S exactly;
// wall-clock work obviously differs and is not compared.
func TestRecoveryStatsSteps(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	for _, name := range []string{"shm", "tcp"} {
		t.Run(name, func(t *testing.T) {
			base := baseTransports()[name]
			_, baseline, err := psort.Parallel(core.Config{P: recoveryP, Transport: base}, data)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ckptConfig(t, transport.NewChaosTransport(base, crashPlan()))
			_, st, err := psort.Parallel(cfg, data)
			if err != nil {
				t.Fatalf("recoverable run failed: %v", err)
			}
			resume := st.Ckpt.ResumeStep
			if resume < 1 {
				t.Fatalf("ResumeStep = %d, want >= 1", resume)
			}
			if st.Syncs != baseline.Syncs-resume {
				t.Fatalf("final attempt ran %d syncs, want %d (baseline %d resumed at %d)",
					st.Syncs, baseline.Syncs-resume, baseline.Syncs, resume)
			}
			if len(st.Steps) != st.Syncs+1 {
				t.Fatalf("len(Steps) = %d, want Syncs+1 = %d", len(st.Steps), st.Syncs+1)
			}
			for i, got := range st.Steps {
				want := baseline.Steps[resume+i]
				if got.SumSent != want.SumSent || got.SumUnits != want.SumUnits || got.MaxH != want.MaxH {
					t.Fatalf("recovered superstep %d (machine superstep %d): sent=%d units=%d maxh=%d, baseline sent=%d units=%d maxh=%d",
						i, resume+i, got.SumSent, got.SumUnits, got.MaxH, want.SumSent, want.SumUnits, want.MaxH)
				}
			}
		})
	}
}

// TestRecoveryInjectedAbort: the cooperative abort fault is in the
// recoverable class too. The abort step counter is endpoint-local, so
// each resumed attempt re-fires it at a later machine superstep until
// the remaining run is too short to reach it — progress through
// checkpoints, not luck.
func TestRecoveryInjectedAbort(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.SimTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	plan := transport.FaultPlan{Seed: 1, AbortRank: 1, AbortStep: 2}
	cfg := ckptConfig(t, transport.NewChaosTransport(transport.ShmTransport{}, plan))
	got, st, err := psort.Parallel(cfg, data)
	if err != nil {
		t.Fatalf("abort recovery failed: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered output differs at %d", i)
		}
	}
	if st.Ckpt.Attempts < 2 {
		t.Fatalf("Attempts = %d, want >= 2", st.Ckpt.Attempts)
	}
}

// TestRecoveryPersistentFault: a composite-literal ChaosTransport
// re-fires the crash on every attempt; Run must give up
// after its bounded retries and return the original crash error — no
// silent retry loop. The crash fires in superstep 1, before any
// complete cut can form, so every retry restarts from scratch and dies
// the same way.
func TestRecoveryPersistentFault(t *testing.T) {
	data := psort.RandomData(1000, 1996)
	plan := transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 1}
	tr := transport.ChaosTransport{Base: transport.ShmTransport{}, Plan: plan}
	cfg := ckptConfig(t, tr)
	cfg.Checkpoint.Retries = 2
	start := time.Now()
	_, _, err := psort.Parallel(cfg, data)
	if err == nil {
		t.Fatal("persistent crash fault recovered — it must not")
	}
	if !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("error does not wrap ErrCrashed: %v", err)
	}
	if want := plan.String(); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the fault plan %q", err, want)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("bounded retry took %v", d)
	}
}

// TestCrashWithoutCheckpointing: with cfg.Checkpoint unset the first
// crash is final — Run must not retry, and the error must be
// the original injected-crash error.
func TestCrashWithoutCheckpointing(t *testing.T) {
	data := psort.RandomData(1000, 1996)
	cfg := core.Config{P: recoveryP, Transport: transport.NewChaosTransport(transport.ShmTransport{}, crashPlan())}
	_, st, err := psort.Parallel(cfg, data)
	if err == nil {
		t.Fatal("crash with checkpointing disabled succeeded")
	}
	if !errors.Is(err, transport.ErrCrashed) {
		t.Fatalf("error does not wrap ErrCrashed: %v", err)
	}
	if !strings.Contains(err.Error(), "injected crash of rank 1 in superstep 3") {
		t.Fatalf("error lost the crash detail: %v", err)
	}
	if st != nil {
		t.Fatalf("failed run returned stats: %+v", st)
	}
}

// TestRecoveryOcean: the crashed-and-recovered ocean stream function is
// bit-identical to the sequential solution (which Parallel is already
// pinned to elsewhere).
func TestRecoveryOcean(t *testing.T) {
	ocfg := ocean.Config{Size: 18, Steps: 2}
	want, _, err := ocean.Sequential(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 dies in superstep 6 — inside the first timestep's multigrid
	// work, after the cut at the ψ exchange that opens the timestep.
	plan := transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 6}
	cfg := ckptConfig(t, transport.NewChaosTransport(transport.ShmTransport{}, plan))
	got, st, err := ocean.Parallel(cfg, ocfg)
	if err != nil {
		t.Fatalf("checkpointed ocean run failed: %v", err)
	}
	if len(got.Psi) != len(want.Psi) {
		t.Fatalf("grid size mismatch: %d vs %d", len(got.Psi), len(want.Psi))
	}
	for i := range got.Psi {
		if got.Psi[i] != want.Psi[i] {
			t.Fatalf("ψ differs at %d: %v != %v", i, got.Psi[i], want.Psi[i])
		}
	}
	// The flusher drain makes timestep 0's cut durable before the retry,
	// so the final attempt resumes from it, not from scratch.
	if st.Ckpt == nil || st.Ckpt.Attempts < 2 || st.Ckpt.ResumeStep <= 0 {
		t.Fatalf("expected a run recovered from a cut, got %+v", st.Ckpt)
	}
}

// TestRecoveryResume: the -resume path — an earlier invocation left
// snapshots on disk (here: a clean checkpointed run whose newest cut we
// then destroy, simulating a process killed mid-superstep before cut 3
// completed); a second, separate invocation with Resume set picks up
// from the latest complete cut and finishes correctly.
func TestRecoveryResume(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.SimTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// First invocation: clean run with checkpointing, leaving cuts for
	// supersteps 1..4 and a manifest naming step 4.
	cfg := core.Config{P: recoveryP, Transport: transport.ShmTransport{},
		Checkpoint: &core.CheckpointConfig{Dir: dir, Every: 1}}
	if _, _, err := psort.Parallel(cfg, data); err != nil {
		t.Fatal(err)
	}

	// Kill the newest cut: the manifest still claims step 4, but its
	// files are gone — exactly the state a crash between snapshot and
	// completion leaves behind. Resume must fall back to step 3.
	stale, err := filepath.Glob(filepath.Join(dir, "snap-000000000004-*.ckpt"))
	if err != nil || len(stale) != recoveryP {
		t.Fatalf("expected %d step-4 snapshot files, got %d (%v)", recoveryP, len(stale), err)
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	// Second invocation: fault-free transport, Resume on, same dir.
	cfg2 := core.Config{P: recoveryP, Transport: transport.ShmTransport{},
		Checkpoint: &core.CheckpointConfig{Dir: dir, Every: 1, Resume: true}}
	got, st, err := psort.Parallel(cfg2, data)
	if err != nil {
		t.Fatalf("resumed invocation failed: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("resumed output differs at %d: %v != %v", i, got[i], want[i])
		}
	}
	if st.Ckpt == nil || st.Ckpt.ResumeStep != 3 {
		t.Fatalf("resumed invocation did not start from cut 3: %+v", st.Ckpt)
	}
}

// TestRecoveryEveryStageBoundary: the sort's stage machine is
// checkpointable at *every* superstep boundary, not just the one
// crashPlan happens to hit — a crash while the inbox holds sample
// runs, condensed runs, splitters or routed runs must all recover to
// bit-identical output, on both the shared-memory and the socket
// transport. Superstep 1 crashes before any complete cut exists, so
// that case additionally proves the restart-from-scratch path.
func TestRecoveryEveryStageBoundary(t *testing.T) {
	data := psort.RandomData(3000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.SimTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shm", "tcp"} {
		base := baseTransports()[name]
		for step := 1; step <= 4; step++ {
			t.Run(fmt.Sprintf("%s/crash=1:%d", name, step), func(t *testing.T) {
				plan := transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: step}
				cfg := ckptConfig(t, transport.NewChaosTransport(base, plan))
				got, st, err := psort.Parallel(cfg, data)
				if err != nil {
					t.Fatalf("recoverable run failed: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("recovered output has %d elements, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("recovered output differs at %d: %v != %v", i, got[i], want[i])
					}
				}
				if st.Ckpt == nil || st.Ckpt.Attempts < 2 {
					t.Fatalf("the crash must have fired: %+v", st.Ckpt)
				}
				// Resume depth is only asserted two boundaries past the
				// first cut: tcp's exchange completes per-rank, so a
				// crash fired right after the faulted rank's Sync 1 can
				// still abort a peer inside its own Sync 1 — before that
				// peer's capture — leaving cut 1 uncommitted. The
				// bit-identical output above is the invariant that holds
				// at every boundary regardless of where resume lands.
				if step > 2 && st.Ckpt.ResumeStep < 1 {
					t.Fatalf("crash in superstep %d should resume from a cut: %+v", step, st.Ckpt)
				}
			})
		}
	}
}

// TestRecoveryMergeBoundaries: on sim, a crash at every psort boundary
// resumes from the cut boundaryCrashes predicts, and the recovered
// shares are bit for bit the fault-free ones — the merge's nil-scratch
// path included.
func TestRecoveryMergeBoundaries(t *testing.T) {
	data := psort.RandomData(3000, 1996)
	data[7], data[11] = math.Copysign(0, -1), math.NaN()
	want := map[int][]float64{}
	for _, c := range boundaryCrashes() {
		p, plan := c.p, c.plan
		if want[p] == nil {
			out, _, err := psort.Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, data)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = out
		}
		t.Run(fmt.Sprintf("p=%d/crash=%d:%d", p, plan.CrashRank, plan.CrashStep), func(t *testing.T) {
			cfg := ckptConfig(t, transport.NewChaosTransport(transport.SimTransport{}, plan))
			cfg.P = p
			got, st, err := psort.Parallel(cfg, data)
			if err != nil {
				t.Fatalf("recoverable run failed: %v", err)
			}
			if !slices.EqualFunc(got, want[p], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatal("recovered output differs from the fault-free output")
			}
			resume := plan.CrashStep - 2
			if plan.CrashRank == p-1 {
				resume++
			}
			if resume = max(resume, 0); st.Ckpt == nil || st.Ckpt.Attempts != 2 || st.Ckpt.ResumeStep != resume {
				t.Fatalf("want 2 attempts resumed at %d, got %+v", resume, st.Ckpt)
			}
		})
	}
}

// TestRecoveryEveryTwo: a sparser cadence still recovers correctly — the
// rollback just reaches further back.
func TestRecoveryEveryTwo(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.SimTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(t, transport.NewChaosTransport(transport.XchgTransport{}, crashPlan()))
	cfg.Checkpoint.Every = 2
	got, st, err := psort.Parallel(cfg, data)
	if err != nil {
		t.Fatalf("recoverable run failed: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered output differs at %d", i)
		}
	}
	if st.Ckpt.Attempts < 2 {
		t.Fatalf("Attempts = %d, want >= 2", st.Ckpt.Attempts)
	}
}

// TestRecoverableClean: with no faults, a checkpointed Parallel matches
// an unarmed one and reports a single attempt.
func TestRecoverableClean(t *testing.T) {
	data := psort.RandomData(4000, 1996)
	want, _, err := psort.Parallel(core.Config{P: recoveryP, Transport: transport.ShmTransport{}}, data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(t, transport.ShmTransport{})
	got, st, err := psort.Parallel(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output differs at %d", i)
		}
	}
	if st.Ckpt == nil || st.Ckpt.Attempts != 1 || st.Ckpt.ResumeStep != 0 {
		t.Fatalf("clean run stats: %+v", st.Ckpt)
	}
	if st.Ckpt.Cuts < 3 {
		t.Fatalf("expected a cut per superstep, got %+v", st.Ckpt)
	}
}
