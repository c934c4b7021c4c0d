// Package launch is the only place that knows how a cluster rank
// process is born. The launcher side (Job) owns a coordinator and
// supervises one OS process per rank; the child side (Spec) is the
// single contract handed to each of those processes: Job fills a Spec
// per launch, the caller's Command hook adds its directories and fault
// plan, the whole struct crosses exec in one environment variable, and
// the child turns it back into the core.Config it runs under.
package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/transport"
)

// EnvVar carries the marshalled Spec into a rank process. Its presence
// is also how a self-executing binary knows it is a child.
const EnvVar = "BSP_LAUNCH_SPEC"

// Spec is everything a rank process needs to join its gang. Job sets
// the first block on every launch; the Command hook sets the second.
type Spec struct {
	Rank, P, Epoch int
	JobID          string
	Coordinator    string
	// Resume is set on relaunches: continue from the latest complete
	// checkpoint cut.
	Resume bool
	// Warm children retry recoverable failures in-process (rolling back
	// from the latest cut and rejoining at the bumped epoch) and exit
	// only when they are themselves the convicted rank; cold children
	// fail fast and leave recovery to the gang relaunch.
	Warm bool
	// HeartbeatInterval and SuspectAfter are the job's liveness settings
	// (transport.ClusterConfig); every beat also carries the rank's
	// telemetry.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration

	// Chaos is a transport.ParseFaultPlan spec; empty injects nothing.
	Chaos string
	// CheckpointDir arms checkpointing and the warm/cold retry policy.
	CheckpointDir string
	// ShardDir arms full tracing; WriteShard leaves this rank's shard
	// there for the launcher to merge. Without it the rank runs the
	// flight recorder, which is all its telemetry needs.
	ShardDir string
	// PostmortemDir arms crash dumps into the gang's bundle.
	PostmortemDir string
	// MetricsAddr is this rank's metrics endpoint, advertised over the
	// telemetry plane.
	MetricsAddr string
}

// Env renders the spec as the environment entry a child decodes with
// FromEnv.
func (s Spec) Env() string {
	b, _ := json.Marshal(s) // scalars and strings only: cannot fail
	return EnvVar + "=" + string(b)
}

// FromEnv decodes this process's Spec. ok is false when the variable is
// absent: the process is not a cluster child.
func FromEnv() (s Spec, ok bool, err error) {
	v, ok := os.LookupEnv(EnvVar)
	if !ok {
		return Spec{}, false, nil
	}
	if err := json.Unmarshal([]byte(v), &s); err != nil {
		return Spec{}, true, fmt.Errorf("launch: bad %s=%q: %w", EnvVar, v, err)
	}
	if s.P < 1 || s.Rank < 0 || s.Rank >= s.P || s.Epoch < 0 || s.JobID == "" || s.Coordinator == "" {
		return Spec{}, true, fmt.Errorf("launch: bad %s=%q: need 0 <= rank < p, epoch >= 0, a job id and a coordinator address", EnvVar, v)
	}
	return s, true, nil
}

// Config builds the machine configuration of this rank process: a
// one-rank cluster transport, the gang identity, a recorder (full with
// a ShardDir, flight-only otherwise) and whichever of postmortem dumps
// and checkpointing the spec's directories arm. Callers add what is
// theirs (SyncTimeout, Checkpoint.Every, …).
func (s Spec) Config() (core.Config, error) {
	mcfg := transport.ClusterConfig{
		Coordinator: s.Coordinator, JobID: s.JobID,
		Rank: s.Rank, Epoch: s.Epoch, P: s.P,
		HeartbeatInterval: s.HeartbeatInterval, SuspectAfter: s.SuspectAfter,
		MetricsAddr: s.MetricsAddr,
	}
	if s.Chaos != "" {
		plan, err := transport.ParseFaultPlan(s.Chaos)
		if err != nil {
			return core.Config{}, err
		}
		if s.Epoch > 0 {
			// Every generation is handed the same plan. Hard faults fire in
			// the first one only, so a relaunch replays fault-free from the
			// checkpoint cut; transient faults keep exercising the retry
			// paths.
			plan.AbortStep, plan.CrashStep = 0, 0
		}
		mcfg.Chaos = &plan
		mcfg.ChaosCrash = true
	}
	cfg := core.Config{
		P:         s.P,
		Transport: transport.NewClusterMember(mcfg),
		Group:     &transport.GroupOptions{JobID: s.JobID, Epoch: s.Epoch},
	}
	if s.ShardDir != "" {
		cfg.Trace = trace.New(s.P)
	} else {
		cfg.Trace = trace.NewFlight(s.P)
	}
	if s.PostmortemDir != "" {
		cfg.Postmortem = &core.PostmortemConfig{Dir: s.PostmortemDir, Job: s.JobID}
	}
	if s.CheckpointDir != "" {
		cfg.Checkpoint = &core.CheckpointConfig{Dir: s.CheckpointDir, Resume: s.Resume, Retries: -1}
		if s.Warm {
			// A warm child is its own first line of recovery. The retry
			// budget is per-process and generous; the launcher's
			// MaxRestarts bounds the real recovery events.
			cfg.Checkpoint.Retries = 100
			cfg.Checkpoint.ShouldRetry = func(err error) bool {
				var ce *transport.CrashError
				if errors.As(err, &ce) {
					// The coordinator named the dead rank: survivors heal
					// in place, the convicted process exits.
					return ce.Rank != s.Rank
				}
				// An anonymous ErrCrashed is this process's own hard crash:
				// the endpoint is dead, the process must be replaced.
				return !errors.Is(err, transport.ErrCrashed)
			}
		}
	}
	return cfg, nil
}

// WriteShard persists this rank's slice of the run's trace for the
// launcher to merge; call it on failure too, since the crashed
// generation's shard carries the crash marker. A lost shard costs
// observability, not the run, so failures are reported and swallowed.
func (s Spec) WriteShard(rec *trace.Recorder) {
	if s.ShardDir == "" || rec == nil {
		return
	}
	path := filepath.Join(s.ShardDir, fmt.Sprintf("rank%04d-e%03d.json", s.Rank, s.Epoch))
	if err := trace.WriteShardFile(path, rec.Shard(s.JobID, s.Rank)); err != nil {
		fmt.Fprintln(os.Stderr, "launch: write trace shard:", err)
	}
}

// Exit codes of a rank process (and of bsprun as a whole), classified
// for CI and for the supervisor.
const (
	ExitError   = 1 // run or usage error: relaunching would repeat it
	ExitTimeout = 2 // superstep timeout
	ExitAbort   = 3 // abort, crash, or a failed join
)

// ExitCode maps a run error to the process exit code.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrTimeout):
		return ExitTimeout
	case core.Recoverable(err), errors.Is(err, transport.ErrJoin):
		return ExitAbort
	}
	return ExitError
}

// Recoverable reports whether a rank that exited with code may be
// relaunched from checkpoints.
func Recoverable(code int) bool { return code == ExitTimeout || code == ExitAbort }

// Report prints err to stderr under the program's name — with the
// watchdog's per-rank progress when it is a superstep timeout — and
// returns ExitCode(err).
func Report(prog string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	var te *core.TimeoutError
	if errors.As(err, &te) {
		fmt.Fprintln(os.Stderr, "per-rank progress at timeout:")
		fmt.Fprintln(os.Stderr, te.Detail())
	}
	return ExitCode(err)
}
