package launch

import (
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"time"

	"repro/internal/transport"
)

// Job launches one OS process per rank and supervises the gang from a
// single event loop. Warm selects what a recoverable rank failure
// costs: with it, only the dead process is replaced — the coordinator's
// crash declaration (or the rank's own recoverable exit) relaunches
// that rank while the survivors roll back in place and re-admit it
// through the epoch-fenced rejoin handshake; without it (or when warm
// failures overlap) the generation drains, the epoch is fenced and
// every rank is relaunched with Resume set. MaxRestarts bounds both.
type Job struct {
	P int
	// JobID names the job; a fresh unique id per run keeps processes of
	// unrelated runs from joining each other.
	JobID string
	// JoinTimeout bounds gang assembly per generation.
	JoinTimeout time.Duration
	// HeartbeatInterval and SuspectAfter tune the liveness protocol on
	// both sides: the coordinator's (transport.CoordinatorOptions) and,
	// through the Spec, every child's.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// Command builds the ready-to-start process for one rank; it must
	// put spec.Env() into the process environment. The returned Cmd must
	// not be started.
	Command func(spec Spec) *exec.Cmd
	// MaxRestarts bounds the relaunch events — warm single-rank
	// relaunches and gang relaunches together (0 means none).
	MaxRestarts int
	// Backoff is the pause before the first gang relaunch, doubling per
	// restart. 0 means 100ms.
	Backoff time.Duration
	// Warm enables surgical single-rank recovery. The children need a
	// shared checkpoint cut to roll back to; without one, leave it off.
	Warm bool
	// AdvertiseCoordinator, when set, maps the coordinator's listen
	// address to the address handed to children — the hook a chaos
	// proxy uses to interpose on the control plane.
	AdvertiseCoordinator func(addr string) string
	// Logf, when set, receives launcher progress lines.
	Logf func(format string, args ...any)
	// StatusAddr, when set, serves the coordinator's aggregated
	// /status + /metrics plane (see CoordinatorOptions.StatusAddr). The
	// coordinator aggregates either way; Status returns the result.
	StatusAddr string

	mu           sync.Mutex
	rankRestarts []int64
	gangRelaunch int64
	status       transport.StatusDoc
}

func (j *Job) logf(format string, args ...any) {
	if j.Logf != nil {
		j.Logf(format, args...)
	}
}

// RankRestarts returns the per-rank warm relaunch counts of the last
// Run. The recovery e2e asserts a single crash costs exactly one entry
// here.
func (j *Job) RankRestarts() []int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]int64(nil), j.rankRestarts...)
}

// GangRelaunches returns how many full gang relaunches Run performed.
func (j *Job) GangRelaunches() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.gangRelaunch
}

// Status returns the coordinator's final job-level view of the last
// Run — the document /status served live (a rank whose beats never
// carried telemetry reads "silent"). Zero before the first Run.
func (j *Job) Status() transport.StatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// procExit is one rank process's exit as seen by the supervision loop.
type procExit struct {
	rank int
	code int
}

func waitExitCode(cmd *exec.Cmd) int {
	if err := cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() > 0 {
			return ee.ExitCode()
		}
		return 1
	}
	return 0
}

// Run executes the job to completion: it owns the coordinator, spawns
// the rank processes, and returns nil once every rank has exited
// cleanly. A non-recoverable rank failure, or recoverable ones past
// MaxRestarts, returns an error naming the rank.
func (j *Job) Run() error {
	if j.P < 1 {
		return fmt.Errorf("cluster: p must be >= 1, got %d", j.P)
	}
	if j.Command == nil {
		return errors.New("cluster: Job.Command is required")
	}
	j.mu.Lock()
	j.rankRestarts = make([]int64, j.P)
	j.gangRelaunch = 0
	j.mu.Unlock()
	opts := transport.CoordinatorOptions{
		JobID:             j.JobID,
		JoinTimeout:       j.JoinTimeout,
		HeartbeatInterval: j.HeartbeatInterval,
		SuspectAfter:      j.SuspectAfter,
		StatusAddr:        j.StatusAddr,
	}
	coord, err := transport.StartCoordinator(j.P, opts)
	if err != nil {
		return err
	}
	defer coord.Close()
	if url := coord.StatusURL(); url != "" {
		j.logf("cluster: live status on %s/status (metrics on %s/metrics)", url, url)
	}
	runErr := j.supervise(coord)
	// Capture the final job view before the deferred coord.Close tears
	// the aggregation's HTTP plane down.
	doc := coord.StatusDoc()
	j.mu.Lock()
	j.status = doc
	j.mu.Unlock()
	return runErr
}

// supervise is the one supervision loop. It reacts to two events — a
// rank process exiting and the coordinator fencing a generation (which
// under Warm names the rank to replace) — and has two recoveries:
// replace one rank, or relaunch the gang.
func (j *Job) supervise(coord *transport.Coordinator) error {
	addr, fences := coord.Addr(), coord.Fences()
	if j.AdvertiseCoordinator != nil {
		addr = j.AdvertiseCoordinator(addr)
	}
	backoff := j.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	// Every launch sends exactly one exit event, so 2p absorbs a full
	// generation plus the replacements launched while it drains.
	exitCh := make(chan procExit, 2*j.P)
	cmds := make([]*exec.Cmd, j.P)
	running := make([]bool, j.P)
	// killed marks ranks whose exit we provoked (conviction kills and
	// gang teardowns); their exit events carry no new information.
	killed := make([]bool, j.P)
	lastCode := make([]int, j.P)
	// launchedEpoch dedupes the two reports of one failure: a fence
	// convicting the rank and the dead process's own exit can both
	// arrive. A fence whose NewEpoch is not past the epoch we already
	// launched that rank at refers to a failure already recovered.
	launchedEpoch := make([]int, j.P)
	restarts := 0

	launch := func(rank int, resume bool) error {
		spec := Spec{
			Rank: rank, P: j.P, Epoch: coord.Epoch(),
			JobID: j.JobID, Coordinator: addr,
			Resume: resume, Warm: j.Warm,
			HeartbeatInterval: j.HeartbeatInterval, SuspectAfter: j.SuspectAfter,
		}
		cmd := j.Command(spec)
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("cluster: start rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
		running[rank] = true
		killed[rank] = false
		lastCode[rank] = -1
		launchedEpoch[rank] = spec.Epoch
		go func() {
			exitCh <- procExit{rank: rank, code: waitExitCode(cmd)}
		}()
		return nil
	}
	note := func(ev procExit) {
		running[ev.rank] = false
		lastCode[ev.rank] = ev.code
	}
	// reap makes sure rank's process is dead and its exit consumed (a
	// convicted-but-stalled process may never exit on its own). Exits
	// of other ranks drained along the way are recorded in lastCode,
	// where the overlapping-failure check sees them.
	reap := func(rank int) {
		if !running[rank] {
			return
		}
		killed[rank] = true
		cmds[rank].Process.Kill()
		for running[rank] {
			note(<-exitCh)
		}
	}
	killAll := func() {
		for r := 0; r < j.P; r++ {
			reap(r)
		}
	}
	launchGang := func(resume bool) error {
		j.logf("cluster: launching generation epoch=%d (p=%d, resume=%v)", coord.Epoch(), j.P, resume)
		for r := 0; r < j.P; r++ {
			if err := launch(r, resume); err != nil {
				killAll()
				return err
			}
		}
		return nil
	}
	// relaunchGang tears everything down, fences the epoch and starts
	// over from the latest complete cut.
	relaunchGang := func(why string) error {
		if restarts >= j.MaxRestarts {
			return fmt.Errorf("cluster: job %q failed (%s) after %d attempt(s)", j.JobID, why, restarts+1)
		}
		restarts++
		killAll()
		time.Sleep(backoff << (restarts - 1))
		// The coordinator fences a ready generation itself when it fails,
		// and cold ranks never rejoin, so that new epoch is still unused.
		// A generation that died before assembling still needs the fence;
		// so does any warm one, whose survivors have already rejoined at
		// the current epoch — a half-assembled generation of dead joins
		// must not reject the new gang as duplicate ranks.
		if j.Warm || coord.Epoch() == launchedEpoch[0] {
			coord.AdvanceEpoch()
		}
		j.mu.Lock()
		j.gangRelaunch++
		j.mu.Unlock()
		j.logf("cluster: relaunching the gang from checkpoints (%s; restart %d/%d)", why, restarts, j.MaxRestarts)
		return launchGang(true)
	}
	// recoverRank performs one warm recovery of a single failed rank:
	// make sure its process is dead, then start the replacement at the
	// coordinator's current epoch with Resume set — the survivors are
	// already rolling back in place and will re-admit it at the fenced
	// rejoin. Overlapping failures — another rank already dead, or dying
	// while this one waits for its fence — escalate to the gang fallback.
	recoverRank := func(rank int, why string) error {
		reap(rank)
		// The dead process's exit event can outrun the coordinator's
		// processing of the failure itself (the abort frame, or the
		// dropped control connection). Launching the replacement before
		// the coordinator fences the failed generation would hand it
		// the stale epoch and get it rejected, so wait for the fence. It
		// arrives — an abort fences when its frame is read, a silent
		// death via the dropped connection or missed heartbeats within
		// the suspicion timeout — unless the process died before it ever
		// joined; past the slowest detector plus slack, fall back to the
		// gang relaunch, which fences unconditionally.
		suspect := j.SuspectAfter
		if suspect <= 0 {
			suspect = transport.DefaultSuspectAfter
		}
		unfenced := time.After(suspect + 2*time.Second)
		for {
			for r := 0; r < j.P; r++ {
				if r != rank && !running[r] && lastCode[r] != 0 {
					return relaunchGang(fmt.Sprintf("overlapping failures (rank %d and rank %d)", rank, r))
				}
			}
			if restarts >= j.MaxRestarts {
				return fmt.Errorf("cluster: rank %d of job %q failed (%s) after %d attempt(s)", rank, j.JobID, why, restarts+1)
			}
			if coord.Epoch() > launchedEpoch[rank] {
				break
			}
			select {
			case ev := <-exitCh:
				note(ev)
			case f := <-fences:
				if f.Rank >= 0 && f.Rank != rank && f.NewEpoch > launchedEpoch[f.Rank] {
					return relaunchGang(fmt.Sprintf("overlapping failures (rank %d and rank %d)", rank, f.Rank))
				}
			case <-unfenced:
				return relaunchGang(fmt.Sprintf("rank %d died but its generation was never fenced", rank))
			}
		}
		restarts++
		j.mu.Lock()
		j.rankRestarts[rank]++
		j.mu.Unlock()
		j.logf("cluster: warm-relaunching rank %d at epoch %d (%s; restart %d/%d)", rank, coord.Epoch(), why, restarts, j.MaxRestarts)
		return launch(rank, true)
	}

	if err := launchGang(false); err != nil {
		return err
	}
	for {
		anyRunning := false
		for r := 0; r < j.P; r++ {
			anyRunning = anyRunning || running[r]
		}
		if !anyRunning {
			// The generation has drained. Name the failure that decides:
			// a non-recoverable exit if there is one, else the first.
			bad := -1
			for r := 0; r < j.P; r++ {
				if lastCode[r] != 0 && (bad < 0 || Recoverable(lastCode[bad]) && !Recoverable(lastCode[r])) {
					bad = r
				}
			}
			if bad < 0 {
				j.logf("cluster: job %q completed cleanly (%d restart(s))", j.JobID, restarts)
				return nil
			}
			if !Recoverable(lastCode[bad]) {
				return fmt.Errorf("cluster: rank %d of job %q failed with exit code %d (not recoverable)", bad, j.JobID, lastCode[bad])
			}
			if err := relaunchGang(fmt.Sprintf("rank %d exited with code %d, no survivors", bad, lastCode[bad])); err != nil {
				return err
			}
			continue
		}

		select {
		case f := <-fences:
			// The coordinator fenced a generation. Cold, or with nobody
			// convicted (a cooperative abort), the processes' own exits
			// drive the recovery. Warm with a conviction, replace exactly
			// that process — unless the fence is a stale duplicate of a
			// failure already recovered.
			if !j.Warm || f.Rank < 0 || f.NewEpoch <= launchedEpoch[f.Rank] {
				continue
			}
			if err := recoverRank(f.Rank, fmt.Sprintf("declared crashed: %s", f.Reason)); err != nil {
				killAll()
				return err
			}
		case ev := <-exitCh:
			note(ev)
			switch {
			case killed[ev.rank]:
				// We provoked this exit; the recovery that triggered it
				// is already in flight.
			case ev.code == 0:
				// Clean exit; completion is checked at the top.
			case !j.Warm:
				// Cold ranks fail fast, so one failure takes the whole
				// generation down through the coordinator's fan-out. Let it
				// drain rather than kill it: the survivors are still
				// writing their postmortem dumps. The drained-generation
				// check at the top decides what happens next.
			case !Recoverable(ev.code):
				killAll()
				return fmt.Errorf("cluster: rank %d of job %q failed with exit code %d (not recoverable)", ev.rank, j.JobID, ev.code)
			default:
				// A recoverable self-exit: the child decided it could
				// not retry in-process (it was the convicted rank, or
				// its rejoin failed). If it is the only failure, warm-
				// relaunch it; survivors are rejoining already.
				if err := recoverRank(ev.rank, fmt.Sprintf("exited with code %d", ev.code)); err != nil {
					killAll()
					return err
				}
			}
		}
	}
}
