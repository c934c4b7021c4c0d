package launch

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// The rank processes of these tests are this test binary re-executed:
// a Spec in the environment turns it into a helper that either exits
// with a scripted code or runs a three-superstep program under
// spec.Config().
func TestMain(m *testing.M) {
	spec, isChild, err := FromEnv()
	switch {
	case err != nil:
		os.Exit(Report("helper", err))
	case isChild:
		os.Exit(runHelper(spec, os.Args[1]))
	}
	os.Exit(m.Run())
}

// runHelper plays one rank. script is a comma-separated list of
// rank@epoch=code entries (epoch -1 matches every epoch); a matching
// entry exits at once with that code, never joining the gang. Otherwise
// a spec with a checkpoint directory runs a real machine, and anything
// else exits cleanly.
func runHelper(spec Spec, script string) int {
	for _, entry := range strings.Split(script, ",") {
		var rank, epoch, code int
		if _, err := fmt.Sscanf(entry, "%d@%d=%d", &rank, &epoch, &code); err != nil {
			continue
		}
		if rank == spec.Rank && (epoch < 0 || epoch == spec.Epoch) {
			return code
		}
	}
	if spec.CheckpointDir == "" {
		return 0
	}
	cfg, err := spec.Config()
	if err != nil {
		return Report("helper", err)
	}
	cfg.SyncTimeout = 30 * time.Second
	_, err = core.Run(cfg, func(c *core.Proc) {
		for s := 0; s < 3; s++ {
			c.Sync()
		}
	})
	if err != nil {
		return Report(fmt.Sprintf("helper rank %d (epoch %d)", spec.Rank, spec.Epoch), err)
	}
	return 0
}

// TestClusterJobLauncher drives the one supervision loop through
// scripted rank exits and, for the warm single-failure row, a real gang
// with an injected crash.
func TestClusterJobLauncher(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	type launched struct {
		epoch  int
		resume bool
	}
	cases := []struct {
		name     string
		p        int
		restarts int // MaxRestarts
		warm     bool
		script   string
		chaos    string // with a checkpoint dir: unscripted ranks run a real machine
		wantErr  []string
		wantGens []launched // per launch of rank 0, in order
		wantRank []int64    // RankRestarts
		wantGang int64      // GangRelaunches
	}{
		{
			name:     "clean gang",
			p:        3,
			wantGens: []launched{{0, false}},
			wantRank: []int64{0, 0, 0},
		},
		{
			name:     "non-recoverable exit names rank and code",
			p:        2,
			restarts: 2,
			script:   "1@0=1",
			wantErr:  []string{"rank 1", "exit code 1", "not recoverable"},
			wantGens: []launched{{0, false}},
			wantRank: []int64{0, 0},
		},
		{
			name:     "cold recoverable exit relaunches the gang until MaxRestarts",
			p:        2,
			restarts: 2,
			script:   "1@-1=3",
			wantErr:  []string{"rank 1 exited with code 3", "after 3 attempt(s)"},
			wantGens: []launched{{0, false}, {1, true}, {2, true}},
			wantRank: []int64{0, 0},
			wantGang: 2,
		},
		{
			name:     "warm single failure replaces exactly that rank",
			p:        3,
			restarts: 3,
			warm:     true,
			chaos:    "crash=1:2",
			wantGens: []launched{{0, false}},
			wantRank: []int64{0, 1, 0},
		},
		{
			name:     "overlapping warm failures fall back to the gang",
			p:        3,
			restarts: 2,
			warm:     true,
			script:   "1@0=3,2@0=3",
			wantGens: []launched{{0, false}, {1, true}},
			wantRank: []int64{0, 0, 0},
			wantGang: 1,
		},
		{
			name:     "warm MaxRestarts exhaustion",
			p:        2,
			warm:     true,
			script:   "1@0=2",
			wantErr:  []string{"rank 1", "exited with code 2", "after 1 attempt(s)"},
			wantGens: []launched{{0, false}},
			wantRank: []int64{0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckptDir := ""
			if tc.chaos != "" {
				ckptDir = t.TempDir()
			}
			var gens []launched
			job := &Job{
				P: tc.p, JobID: "launch-test", MaxRestarts: tc.restarts, Warm: tc.warm,
				Backoff: time.Millisecond, Logf: t.Logf,
			}
			job.Command = func(spec Spec) *exec.Cmd {
				if spec.Rank == 0 {
					gens = append(gens, launched{spec.Epoch, spec.Resume})
				}
				if spec.P != job.P || spec.JobID != job.JobID || spec.Warm != job.Warm {
					t.Errorf("spec %+v does not carry the job's p/id/warm", spec)
				}
				spec.Chaos, spec.CheckpointDir = tc.chaos, ckptDir
				cmd := exec.Command(exe, tc.script)
				cmd.Env = append(os.Environ(), spec.Env())
				cmd.Stderr = os.Stderr
				return cmd
			}
			err := job.Run()
			if (err != nil) != (tc.wantErr != nil) {
				t.Fatalf("Run() = %v, want error %v", err, tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q must contain %q", err, want)
				}
			}
			if !reflect.DeepEqual(gens, tc.wantGens) {
				t.Errorf("rank 0 launched at (epoch, resume) %v, want %v", gens, tc.wantGens)
			}
			if got := job.RankRestarts(); !reflect.DeepEqual(got, tc.wantRank) {
				t.Errorf("RankRestarts = %v, want %v", got, tc.wantRank)
			}
			if got := job.GangRelaunches(); got != tc.wantGang {
				t.Errorf("GangRelaunches = %d, want %d", got, tc.wantGang)
			}
		})
	}
}

// TestSpecEnvRoundTrip: every field of a Spec survives Env → FromEnv,
// a malformed value is an error naming the variable, and a process
// without the variable is not a child.
func TestSpecEnvRoundTrip(t *testing.T) {
	if _, ok, err := FromEnv(); ok || err != nil {
		t.Fatalf("without %s: ok=%v err=%v, want not a child", EnvVar, ok, err)
	}
	want := Spec{
		Rank: 2, P: 4, Epoch: 3, JobID: "job-x", Coordinator: "127.0.0.1:4242",
		Resume: true, Warm: true,
		HeartbeatInterval: 100 * time.Millisecond, SuspectAfter: 2 * time.Second,
		Chaos: "seed=9,crash=1:3", CheckpointDir: "/ckpt", ShardDir: "/shards",
		PostmortemDir: "/post", MetricsAddr: "127.0.0.1:9100",
	}
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the round-trip fixture leaves Spec.%s zero; set it", v.Type().Field(i).Name)
		}
	}
	name, value, _ := strings.Cut(want.Env(), "=")
	if name != EnvVar {
		t.Fatalf("Env() sets %q, want %q", name, EnvVar)
	}
	t.Setenv(EnvVar, value)
	got, ok, err := FromEnv()
	if !ok || err != nil || got != want {
		t.Errorf("round trip: got %+v ok=%v err=%v, want %+v", got, ok, err, want)
	}
	for _, bad := range []string{"{not json", `{"Rank":4,"P":4,"JobID":"j","Coordinator":"c"}`, `{"P":1,"Coordinator":"c"}`} {
		t.Setenv(EnvVar, bad)
		if _, ok, err := FromEnv(); !ok || err == nil || !strings.Contains(err.Error(), EnvVar) {
			t.Errorf("%s=%s: ok=%v err=%v, want an error naming the variable", EnvVar, bad, ok, err)
		}
	}
}

// TestSpecConfigRecorder: every rank process gets a recorder, so its
// beats carry telemetry — a full one when the spec names a shard
// directory, the flight recorder otherwise (also with no directory at
// all, where nothing else would arm one).
func TestSpecConfigRecorder(t *testing.T) {
	bare := Spec{Rank: 0, P: 2, JobID: "j", Coordinator: "127.0.0.1:1"}
	cfg, err := bare.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace == nil {
		t.Fatal("a spec with no directories yields no recorder: its rank's telemetry would read all zeros")
	}
	sharded := bare
	sharded.ShardDir = t.TempDir()
	if cfg, err = sharded.Config(); err != nil || cfg.Trace == nil {
		t.Fatalf("a spec with a shard directory: Trace=%v err=%v, want a recorder", cfg.Trace, err)
	}
}

// TestExitCodeClassification pins the one exit-code map every rank
// process and the supervisor share.
func TestExitCodeClassification(t *testing.T) {
	for _, tc := range []struct {
		err         error
		code        int
		recoverable bool
	}{
		{nil, 0, false},
		{errors.New("bad flag"), ExitError, false},
		{&core.TimeoutError{}, ExitTimeout, true},
		{fmt.Errorf("wrapped: %w", core.ErrTimeout), ExitTimeout, true},
		{transport.ErrAborted, ExitAbort, true},
		{transport.ErrInjectedAbort, ExitAbort, true},
		{&transport.CrashError{Rank: 1}, ExitAbort, true},
		{&transport.JoinError{Err: errors.New("rejected")}, ExitAbort, true},
	} {
		if got := ExitCode(tc.err); got != tc.code || Recoverable(got) != tc.recoverable {
			t.Errorf("ExitCode(%v) = %d (recoverable %v), want %d (recoverable %v)", tc.err, got, Recoverable(got), tc.code, tc.recoverable)
		}
	}
}
