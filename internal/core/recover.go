package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/transport"
)

// CheckpointConfig arms superstep checkpointing (Config.Checkpoint).
// Snapshots are captured inside Sync, after the barrier — the one point
// in a BSP program where the machine state is a globally consistent
// cut: every message of the finished superstep is delivered, none of
// the next superstep's exist yet. Sync returns once the rank's record
// is streamed into a temporary file; a per-rank flusher makes it
// durable (fsync → rename → directory fsync) while the next superstep
// runs, and the run does not return before every flush has finished.
type CheckpointConfig struct {
	// Dir is the snapshot directory (a ckpt.Store). Empty disables
	// checkpointing entirely.
	Dir string
	// Every captures a snapshot at every Every-th eligible superstep
	// boundary (one where the Save hook accepts). 0 or negative means
	// every eligible boundary.
	Every int
	// Retries bounds how many times RunRecoverable re-executes after a
	// recoverable failure before giving up and returning the original
	// error. 0 means 3; negative disables in-process retry entirely —
	// a cluster rank process fails fast and lets the gang launcher
	// relaunch the whole generation from the shared checkpoint cut.
	Retries int
	// Backoff is the sleep before the first re-execution, doubled per
	// subsequent attempt. 0 means 50ms.
	Backoff time.Duration
	// Resume loads the latest complete snapshot before the first
	// attempt, continuing an earlier (crashed) invocation's run instead
	// of starting from superstep 0.
	Resume bool
	// ShouldRetry, when non-nil, vetoes individual in-process retries:
	// a recoverable error is re-executed only if ShouldRetry returns
	// true for it. A warm cluster rank uses this to fail fast when the
	// error names itself as the crashed party (its process must be
	// replaced) while still healing peer crashes in-process.
	ShouldRetry func(error) bool
}

func (ck *CheckpointConfig) every() int {
	if ck.Every <= 0 {
		return 1
	}
	return ck.Every
}

func (ck *CheckpointConfig) retries() int {
	if ck.Retries < 0 {
		return 0
	}
	if ck.Retries == 0 {
		return 3
	}
	return ck.Retries
}

func (ck *CheckpointConfig) backoff() time.Duration {
	if ck.Backoff <= 0 {
		return 50 * time.Millisecond
	}
	return ck.Backoff
}

// Hooks are the application's checkpoint callbacks. Both run on the
// process's own goroutine.
type Hooks struct {
	// Save appends the rank's serialized state at the superstep
	// boundary being captured to buf and returns the extended slice;
	// it is called inside Sync right after the barrier. buf is empty
	// and is the slice this rank's Save returned at its last accepted
	// capture, so an appending hook serializes into one buffer for the
	// whole run (a fresh slice may be returned instead; it is the one
	// handed back next time). Save must not retain or alias buf or its
	// result: the next capture overwrites them. Returning ok == false
	// declines the boundary — the state is mid-phase and not
	// restartable — skips the snapshot on every rank (all ranks of an
	// SPMD program must agree, which they do when the decision is a
	// function of the superstep) and keeps buf for next time. Save must
	// not consume the inbox (no Recv/GetPkt): the undelivered inbox is
	// captured alongside the user state.
	Save func(c *Proc, buf []byte) (state []byte, ok bool)
	// Restore is called once per process before fn, when a run resumes
	// from a snapshot: step is the superstep boundary the snapshot was
	// captured at and state is what Save returned there. The restored
	// inbox is already in place (Recv/GetPkt see it); fn observes
	// c.Step() == step and must continue from that boundary.
	Restore func(c *Proc, step int, state []byte) error
}

// CkptStats reports checkpoint and recovery activity of a run.
type CkptStats struct {
	// Snapshots counts per-rank records made durable; Cuts counts the
	// supersteps at which every rank this process hosts has one.
	Snapshots int
	Cuts      int
	// Bytes totals the user and inbox bytes those records hold (a
	// reference record holds no user bytes). Time is the on-path cost
	// of capture inside Sync — the Save hook, the reference check,
	// streaming the record into its temporary file and any wait for a
	// full flush queue — and Flush the
	// flushers' fsync → rename → directory fsync time; both are summed
	// across ranks.
	Bytes int64
	Time  time.Duration
	Flush time.Duration
	// Err is the first capture or flush failure. A checkpoint that
	// cannot be persisted costs recovery depth, not correctness, so the
	// run goes on; Err tells such a run from one with full coverage.
	Err error
	// Attempts is the number of machine executions (1 = no recovery);
	// ResumeStep is the superstep the final attempt resumed from, 0
	// when it started from scratch.
	Attempts   int
	ResumeStep int
}

// runState carries the per-attempt checkpoint machinery into
// runMachine: the shared capturer (nil when capture is disabled) and
// the snapshot set to resume from (nil for a scratch start).
type runState struct {
	cap    *capturer
	resume []*ckpt.Snapshot // len P, rank-indexed
}

// resumeStep returns the superstep the resume set was captured at.
func (rs *runState) resumeStep() int {
	if rs == nil || rs.resume == nil {
		return 0
	}
	return rs.resume[0].Step
}

// flushDepth is how many staged records a rank may have waiting for its
// flusher; capture blocks only when that many are outstanding. Four
// holds a whole psort run (S = 4), and bounds how far durability can
// fall behind the cut a longer run has reached.
const flushDepth = 4

// capturer persists snapshots for the ranks of one machine execution
// that this process hosts. Each rank captures on its own goroutine from
// inside Sync and hands the staged record to its own FIFO flusher, so
// a rank's records become durable in cut order — a reference never
// before its base. The mutex guards the stats and the durability
// accounting the flushers share.
type capturer struct {
	store *ckpt.Store
	every int
	save  func(c *Proc, buf []byte) ([]byte, bool)
	ranks []rankCapture // ranks[r] is touched only by rank r's goroutine
	// hosted is the number of ranks this process runs; runMachine sets
	// it before any rank starts.
	hosted  int
	flushes sync.WaitGroup

	mu      sync.Mutex
	durable map[int]int // step -> hosted ranks with a durable record
	stats   CkptStats
}

// rankCapture is one rank's capture state.
type rankCapture struct {
	// buf is the slice this rank's Save returned at its last accepted
	// capture, handed back (truncated) at the next one.
	buf []byte
	w   *ckpt.Writer
	// queue feeds the rank's flusher; nil until its first capture.
	queue chan flushJob
}

// flushJob is one staged record on its way to durability.
type flushJob struct {
	rec   *ckpt.Staged
	step  int
	bytes int
}

func newCapturer(ck *CheckpointConfig, p int, save func(c *Proc, buf []byte) ([]byte, bool)) *capturer {
	return &capturer{
		store:   &ckpt.Store{Dir: ck.Dir},
		every:   ck.every(),
		save:    save,
		ranks:   make([]rankCapture, p),
		durable: make(map[int]int),
	}
}

// capture snapshots one rank at the boundary Sync just completed and
// queues the record for the rank's flusher. Failures are recorded, not
// fatal.
func (k *capturer) capture(c *Proc) {
	if c.step-c.lastCap < k.every {
		return
	}
	start := c.now()
	rc := &k.ranks[c.id]
	user, ok := k.save(c, rc.buf[:0])
	if !ok {
		return
	}
	rc.buf = user
	c.lastCap = c.step
	if rc.w == nil {
		rc.w = k.store.NewWriter()
		rc.queue = make(chan flushJob, flushDepth)
		k.flushes.Add(1)
		go k.flush(rc.queue)
	}
	// The undelivered inbox travels with the snapshot: none of it is
	// consumed yet (capture runs inside Sync), and its framed batches
	// are streamed into the record file as they are.
	snap := ckpt.Snapshot{Step: c.step, Rank: c.id, P: c.p, User: user, Batches: c.inbox.Batches()}
	rec, err := rc.w.Stage(&snap)
	size := snap.BatchLen()
	if err == nil {
		if rec.Base == 0 {
			size += len(user)
		}
		rc.queue <- flushJob{rec: rec, step: c.step, bytes: size}
	}
	end := c.now()
	c.tr.CkptSave(c.step, start, end, size)
	k.mu.Lock()
	k.stats.Time += time.Duration(end - start)
	k.fail(err)
	k.mu.Unlock()
}

// flush makes one rank's staged records durable in the order they were
// staged. A reference whose base failed to publish is dropped: it could
// never be loaded.
func (k *capturer) flush(queue <-chan flushJob) {
	defer k.flushes.Done()
	baseOK := false
	for job := range queue {
		if job.rec.Base > 0 && !baseOK {
			job.rec.Discard()
			continue
		}
		start := time.Now()
		err := job.rec.Publish()
		if job.rec.Base == 0 {
			baseOK = err == nil
		}
		k.mu.Lock()
		k.stats.Flush += time.Since(start)
		k.fail(err)
		if err == nil {
			k.stats.Snapshots++
			k.stats.Bytes += int64(job.bytes)
			if k.durable[job.step]++; k.durable[job.step] == k.hosted {
				delete(k.durable, job.step)
				k.stats.Cuts++
			}
		}
		k.mu.Unlock()
	}
}

// fail records err if it is the first failure. k.mu must be held.
func (k *capturer) fail(err error) {
	if err != nil && k.stats.Err == nil {
		k.stats.Err = err
	}
}

// drain waits until every queued record is flushed and releases the
// writers. It runs once the ranks' goroutines have exited.
func (k *capturer) drain() {
	for i := range k.ranks {
		if rc := &k.ranks[i]; rc.w != nil {
			close(rc.queue)
			rc.w.Close()
		}
	}
	k.flushes.Wait()
}

// Recoverable reports whether err is a failure RunRecoverable rolls
// back from: an abort (peer-induced or injected), a superstep timeout,
// or an injected hard crash. Program panics and infrastructure errors
// outside these classes fail the run immediately.
func Recoverable(err error) bool {
	return errors.Is(err, transport.ErrAborted) ||
		errors.Is(err, transport.ErrInjectedAbort) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, transport.ErrCrashed)
}

// RunRecoverable executes fn as P BSP processes and survives recoverable
// failures when cfg.Checkpoint is armed: on ErrAborted, ErrTimeout or
// an injected crash it rolls every rank back to the latest complete
// snapshot in cfg.Checkpoint.Dir (or to superstep 0 if none exists)
// and re-executes, up to Retries attempts with doubling Backoff. A
// persistent fault therefore still fails, with the original error —
// never a silent retry loop. With cfg.Checkpoint nil or Dir empty the
// machine executes once and the first failure is final.
//
// Snapshot capture requires hooks.Save and resuming from one requires
// hooks.Restore; without them runs are still retried from scratch on
// recoverable errors, and whatever snapshots cfg.Checkpoint.Dir holds
// are ignored.
// The returned Stats describe the final attempt only, with Stats.Ckpt
// summarizing capture and recovery across all attempts.
func RunRecoverable(cfg Config, fn func(*Proc), hooks Hooks) (*Stats, error) {
	ck := cfg.Checkpoint
	if ck == nil || ck.Dir == "" {
		return runMachine(cfg, fn, hooks, nil)
	}
	store := &ckpt.Store{Dir: ck.Dir}
	load := func() []*ckpt.Snapshot {
		if hooks.Restore == nil {
			return nil // nothing could rebuild the state a snapshot holds
		}
		if _, snaps, ok := store.LoadComplete(cfg.P); ok {
			return snaps
		}
		return nil
	}
	var resume []*ckpt.Snapshot
	if ck.Resume {
		resume = load()
	}
	var acc CkptStats
	baseGroup := cfg.Group
	attempts := 0
	for {
		attempts++
		if baseGroup != nil {
			// Each retry is a new gang generation: bump the epoch so a
			// cluster straggler of the failed attempt is fenced at the
			// handshake instead of corrupting the fresh exchanges.
			g := *baseGroup
			g.Epoch += attempts - 1
			cfg.Group = &g
		}
		rs := &runState{resume: resume}
		if hooks.Save != nil {
			rs.cap = newCapturer(ck, cfg.P, hooks.Save)
		}
		st, err := runMachine(cfg, fn, hooks, rs)
		if rs.cap != nil {
			// runMachine drained the flushers; the capturer is quiescent.
			cs := rs.cap.stats
			acc.Snapshots += cs.Snapshots
			acc.Cuts += cs.Cuts
			acc.Bytes += cs.Bytes
			acc.Time += cs.Time
			acc.Flush += cs.Flush
			if acc.Err == nil {
				acc.Err = cs.Err
			}
		}
		if err == nil {
			acc.Attempts = attempts
			acc.ResumeStep = rs.resumeStep()
			st.Ckpt = &acc
			return st, nil
		}
		if !Recoverable(err) || (ck.ShouldRetry != nil && !ck.ShouldRetry(err)) || attempts > ck.retries() {
			return nil, err
		}
		time.Sleep(ck.backoff() << (attempts - 1))
		resume = load()
		// Record the rollback on the machine track: the next attempt and
		// the boundary it resumes from (0 = scratch).
		resumeAt := 0
		if resume != nil {
			resumeAt = resume[0].Step
		}
		cfg.Trace.Rollback(attempts+1, resumeAt)
	}
}
