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
// the next superstep's exist yet.
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
	// Snapshots counts per-rank snapshot records written; Cuts counts
	// complete global snapshots committed to the manifest.
	Snapshots int
	Cuts      int
	// Bytes and Time total the written snapshot bytes and the wall
	// time spent capturing (summed across ranks).
	Bytes int64
	Time  time.Duration
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

// capturer persists snapshots for all ranks of one machine execution.
// Each rank calls capture on its own goroutine from inside Sync; the
// mutex only guards the completion accounting and stats. The last rank
// to persist a given step's record commits the manifest — safe because
// a rank cannot proceed past the capture point before its record is
// durable, so a committed step is complete by construction.
type capturer struct {
	store *ckpt.Store
	every int
	p     int
	save  func(c *Proc, buf []byte) ([]byte, bool)
	// bufs[r] is the slice rank r's Save returned at its last accepted
	// capture, handed back (truncated) at the next one. Only rank r's
	// goroutine touches it.
	bufs [][]byte

	mu      sync.Mutex
	pending map[int]int // step -> ranks persisted so far
	err     error       // first write failure (reported, not fatal)
	stats   CkptStats
}

func newCapturer(ck *CheckpointConfig, p int, save func(c *Proc, buf []byte) ([]byte, bool)) *capturer {
	return &capturer{
		store:   &ckpt.Store{Dir: ck.Dir},
		every:   ck.every(),
		p:       p,
		save:    save,
		bufs:    make([][]byte, p),
		pending: make(map[int]int),
	}
}

// capture snapshots one rank at the boundary Sync just completed.
// Write failures are recorded once and disable nothing: a checkpoint
// that cannot be persisted costs recovery depth, not correctness.
func (k *capturer) capture(c *Proc) {
	if c.step-c.lastCap < k.every {
		return
	}
	user, ok := k.save(c, k.bufs[c.id][:0])
	if !ok {
		return
	}
	k.bufs[c.id] = user
	c.lastCap = c.step
	start := time.Now()
	var trStart int64
	if c.tr != nil {
		trStart = c.tr.Now()
	}
	// The undelivered inbox travels with the snapshot: none of it is
	// consumed yet (capture runs inside Sync), and its framed batches
	// are streamed into the record file as they are.
	snap := ckpt.Snapshot{Step: c.step, Rank: c.id, P: c.p, User: user, Batches: c.inbox.Batches()}
	err := k.store.WriteRank(&snap)
	size := len(user) + snap.BatchLen()
	if c.tr != nil {
		c.tr.CkptSave(c.step, trStart, c.tr.Now(), size)
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	k.stats.Time += time.Since(start)
	if err != nil {
		if k.err == nil {
			k.err = err
		}
		return
	}
	k.stats.Snapshots++
	k.stats.Bytes += int64(size)
	k.pending[c.step]++
	if k.pending[c.step] == k.p {
		delete(k.pending, c.step)
		if err := k.store.Commit(c.step, k.p); err != nil {
			if k.err == nil {
				k.err = err
			}
			return
		}
		k.stats.Cuts++
	}
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
			// All process goroutines have exited; the capturer is quiescent.
			acc.Snapshots += rs.cap.stats.Snapshots
			acc.Cuts += rs.cap.stats.Cuts
			acc.Bytes += rs.cap.stats.Bytes
			acc.Time += rs.cap.stats.Time
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
