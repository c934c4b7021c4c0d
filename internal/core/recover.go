package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ckpt"
	"repro/internal/transport"
)

// CheckpointConfig arms superstep checkpointing (Config.Checkpoint).
// Snapshots are captured inside Sync, after the barrier — the one point
// in a BSP program where the machine state is a globally consistent
// cut: every message of the finished superstep is delivered, none of
// the next superstep's exist yet. Sync returns once the rank's record
// is streamed into a temporary file; one flusher for all the ranks the
// process hosts makes it durable (fsync → rename, then one directory
// fsync per batch of records) while the next superstep runs, and the
// run does not return before every flush has finished.
type CheckpointConfig struct {
	// Dir is the snapshot directory (a ckpt.Store). Empty disables
	// checkpointing entirely.
	Dir string
	// Every makes a boundary eligible for a snapshot once Every
	// supersteps have passed since the last one; an eligible boundary at
	// which the ranks keep state (Proc.Keep) is a cut. 0 or negative
	// makes every boundary eligible.
	Every int
	// Retries bounds how many times Run re-executes after a recoverable
	// failure before giving up and returning the original error. 0
	// means 3; negative disables in-process retry entirely — a cluster
	// rank process fails fast and lets the gang launcher relaunch the
	// whole generation from the shared checkpoint cut.
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

// Keep names the variables that hold this rank's restartable state;
// each is a *[]float64 or an *int, and any other type panics. The set
// stands until the rank's next Keep, and Keep() keeps nothing. An
// eligible boundary (CheckpointConfig.Every) at which the rank keeps
// something is a cut: inside Sync, right after the barrier, the kept
// variables are streamed into the rank's record straight from their
// memory, beside the undelivered inbox. All ranks must agree on which
// boundaries are cuts — they do when every rank calls Keep at the same
// supersteps.
//
// On a rank resumed from a cut (Step() is the cut's superstep), the
// first Keep fills its targets from the snapshot: a slice whose length
// matches the saved one is overwritten in place, any other gets a new
// array. The targets must name the cut's regions in the same order and
// of the same kinds, or the run fails; so does a resumed rank that
// Syncs or returns before its first Keep. The time a resumed rank
// spends up to the end of that Keep is its restore, not superstep work.
func (c *Proc) Keep(ptrs ...any) {
	for _, p := range ptrs {
		switch p.(type) {
		case *[]float64, *int:
		default:
			panic(fmt.Sprintf("bsp: Keep(%T): only *[]float64 and *int can be kept", p))
		}
	}
	c.kept = append(c.kept[:0], ptrs...)
	if c.restore == nil {
		return
	}
	if err := restoreKept(c.restore.User, ptrs); err != nil {
		panic(syncFailure{fmt.Errorf("restoring superstep %d: %w", c.step, err)})
	}
	c.restore = nil
	end := c.now()
	c.tr.CkptRestore(c.step, c.start, end)
	c.start = end
}

// checkRestored fails a resumed rank that reached a Sync, or its end,
// before Keep restored its state.
func (c *Proc) checkRestored() {
	if c.restore != nil {
		panic(syncFailure{fmt.Errorf("resumed at superstep %d, but no Keep restored the rank's state", c.step)})
	}
}

// Region kinds in the record's region table.
const (
	keptFloat64s = 1
	keptInt      = 2
)

// keptLayout reports whether a kept variable's memory is the record's
// little-endian layout, so that it can be streamed as it is: on a
// little-endian host with 64-bit ints. Run refuses to checkpoint on any
// other.
var keptLayout = binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && strconv.IntSize == 64

// keptView returns the region kind of p, a *[]float64 or an *int, and
// its memory as bytes.
func keptView(p any) (uint32, []byte) {
	if s, ok := p.(*[]float64); ok {
		return keptFloat64s, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(*s))), 8*len(*s))
	}
	return keptInt, unsafe.Slice((*byte)(unsafe.Pointer(p.(*int))), 8)
}

// regions lays the kept variables out as a record's user section: the
// region table — the count, then each region's kind and length in
// 8-byte elements — in rc.table, followed by a view of each region's
// memory in rc.views.
func (rc *rankCapture) regions(kept []any) {
	le := binary.LittleEndian
	rc.table = le.AppendUint32(rc.table[:0], uint32(len(kept)))
	rc.views = rc.views[:0]
	for _, p := range kept {
		kind, b := keptView(p)
		rc.table = le.AppendUint32(rc.table, kind)
		rc.table = le.AppendUint64(rc.table, uint64(len(b)/8))
		rc.views = append(rc.views, b)
	}
}

// restoreKept fills ptrs from user, a user section regions laid out.
func restoreKept(user []byte, ptrs []any) error {
	le := binary.LittleEndian
	if len(user) < 4 {
		return fmt.Errorf("a user section of %d bytes holds no region table", len(user))
	}
	if n := int(le.Uint32(user)); n != len(ptrs) {
		return fmt.Errorf("the snapshot keeps %d regions, Keep names %d", n, len(ptrs))
	}
	if len(user) < 4+12*len(ptrs) {
		return fmt.Errorf("region table truncated at %d bytes", len(user))
	}
	table, data := user[4:], user[4+12*len(ptrs):]
	for i, p := range ptrs {
		kind, _ := keptView(p)
		if got := le.Uint32(table[12*i:]); got != kind {
			return fmt.Errorf("region %d is of kind %d, Keep names a %T", i, got, p)
		}
		size := le.Uint64(table[12*i+4:])
		if size > uint64(len(data)/8) {
			return fmt.Errorf("region %d of %d elements overruns the section", i, size)
		}
		if s, ok := p.(*[]float64); ok && uint64(len(*s)) != size {
			*s = make([]float64, size)
		}
		_, dst := keptView(p)
		if uint64(len(dst)) != 8*size {
			return fmt.Errorf("region %d holds %d elements, its %T target %d", i, size, p, len(dst)/8)
		}
		data = data[copy(dst, data):]
	}
	if len(data) != 0 {
		return fmt.Errorf("%d bytes after the last region", len(data))
	}
	return nil
}

// CkptStats reports checkpoint and recovery activity of a run.
type CkptStats struct {
	// Snapshots counts per-rank records made durable; Cuts counts the
	// supersteps at which every rank this process hosts has one.
	Snapshots int
	Cuts      int
	// Bytes totals the user and inbox bytes those records hold (a
	// reference record holds no user bytes). Time is the on-path cost
	// of capture inside Sync — the reference check, streaming the kept
	// state and the inbox into the record's temporary file and any wait
	// for a full flush queue — summed across ranks. Flush is the
	// flusher's time: its fsync → rename of each record and one
	// directory fsync per batch.
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

// flushDepth is how many staged records per hosted rank may wait for
// the flusher; capture blocks only when flushDepth × hosted are
// outstanding. Four holds a whole psort run (S = 4), and bounds how far
// durability can fall behind the cut a longer run has reached.
const flushDepth = 4

// publish group-commits one batch of staged records. It is a variable
// only so that a test can watch the flusher.
var publish = ckpt.Publish

// capturer persists snapshots for the ranks of one machine execution
// that this process hosts. Each rank captures on its own goroutine from
// inside Sync and queues the staged record for the capturer's one
// flusher. One flusher, not one per rank: a goroutine blocked in fsync
// keeps its P until the runtime takes it back, so a flusher per rank
// could hold every P while the ranks wait to run. The mutex guards the
// stats and the durability accounting.
type capturer struct {
	store *ckpt.Store
	every int
	ranks []rankCapture // ranks[r] is touched only by rank r's goroutine and the flusher
	// queue feeds the flusher, each rank's records in cut order; start
	// makes it, before any rank runs, and starts the flusher, which
	// closes flushed when it returns.
	queue   chan flushJob
	flushed chan struct{}
	hosted  int // the number of ranks this process runs
	// batch, recs and errs are the flusher's scratch, reused from batch
	// to batch.
	batch []flushJob
	recs  []*ckpt.Staged
	errs  []error

	mu      sync.Mutex
	durable map[int]int // step -> hosted ranks with a durable record
	stats   CkptStats
}

// rankCapture is one rank's capture state.
type rankCapture struct {
	// table and views hold the user section of the capture in progress
	// (regions); both are reused from cut to cut.
	table []byte
	views [][]byte
	w     *ckpt.Writer
	// baseLost is set by the flusher when a full record fails to
	// publish: the references the writer would base on it could never
	// load, so the next capture writes a full record.
	baseLost atomic.Bool
	// baseOK, the flusher's own, reports that the rank's last full
	// record is durable; a reference to it is published only then.
	baseOK bool
}

// flushJob is one staged record on its way to durability.
type flushJob struct {
	rec   *ckpt.Staged
	bytes int
}

func newCapturer(ck *CheckpointConfig, p int) *capturer {
	return &capturer{
		store:   &ckpt.Store{Dir: ck.Dir},
		every:   ck.every(),
		ranks:   make([]rankCapture, p),
		durable: make(map[int]int),
	}
}

// start sizes the flush queue for the hosted ranks and starts the
// flusher.
func (k *capturer) start(hosted int) {
	k.hosted = hosted
	k.queue = make(chan flushJob, flushDepth*hosted)
	k.flushed = make(chan struct{})
	go k.flush()
}

// capture snapshots one rank at the boundary Sync just completed and
// queues the record for the flusher. Failures are recorded, not fatal.
func (k *capturer) capture(c *Proc) {
	if len(c.kept) == 0 || c.step-c.lastCap < k.every {
		return
	}
	start := c.now()
	rc := &k.ranks[c.id]
	c.lastCap = c.step
	if rc.w == nil {
		rc.w = k.store.NewWriter()
	}
	if rc.baseLost.Swap(false) {
		rc.w.Close()
	}
	rc.regions(c.kept)
	// The undelivered inbox travels with the snapshot: none of it is
	// consumed yet (capture runs inside Sync), and its framed batches
	// are streamed into the record file as they are, like the kept
	// state.
	snap := ckpt.Snapshot{Step: c.step, Rank: c.id, P: c.p, User: rc.table, Views: rc.views, Batches: c.inbox.Batches()}
	rec, err := rc.w.Stage(&snap)
	size := snap.BatchLen()
	if err == nil {
		if rec.Base == 0 {
			size += snap.UserLen()
		}
		k.queue <- flushJob{rec: rec, bytes: size}
	}
	clear(rc.views) // hold no view of the app's memory past the capture
	end := c.now()
	c.tr.CkptSave(c.step, start, end, size)
	k.mu.Lock()
	k.stats.Time += time.Duration(end - start)
	k.fail(err)
	k.mu.Unlock()
}

// flush makes the queued records durable, in queue order, one batch at
// a time: each batch is what is queued once the last one is done, up to
// a reference whose base it holds, since a base's rename must be
// durable before its reference is renamed.
func (k *capturer) flush() {
	defer close(k.flushed)
	job, ok := <-k.queue
	for ok {
		k.batch = append(k.batch[:0], job)
		held := false // job, received, opens the next batch
	gather:
		for {
			select {
			case job, ok = <-k.queue:
				if !ok {
					break gather
				}
				if held = baseIn(k.batch, job.rec); held {
					break gather
				}
				k.batch = append(k.batch, job)
			default:
				break gather
			}
		}
		k.commit()
		if ok && !held {
			job, ok = <-k.queue
		}
	}
}

// baseIn reports whether rec is a reference whose base is in batch.
func baseIn(batch []flushJob, rec *ckpt.Staged) bool {
	if rec.Base == 0 {
		return false
	}
	for _, j := range batch {
		if j.rec.Rank == rec.Rank && j.rec.Step == rec.Base {
			return true
		}
	}
	return false
}

// commit publishes k.batch in one group commit and then counts the
// records it made durable. A reference whose base failed to publish is
// dropped: it could never be loaded.
func (k *capturer) commit() {
	start := time.Now()
	batch := k.batch[:0]
	k.recs = k.recs[:0]
	for _, j := range k.batch {
		if j.rec.Base > 0 && !k.ranks[j.rec.Rank].baseOK {
			j.rec.Discard()
			continue
		}
		batch = append(batch, j)
		k.recs = append(k.recs, j.rec)
	}
	k.errs = slices.Grow(k.errs[:0], len(batch))[:len(batch)]
	publish(k.recs, k.errs)
	for i, j := range batch {
		if rc := &k.ranks[j.rec.Rank]; j.rec.Base == 0 {
			rc.baseOK = k.errs[i] == nil
			if !rc.baseOK {
				rc.baseLost.Store(true)
			}
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.stats.Flush += time.Since(start)
	for i, j := range batch {
		k.fail(k.errs[i])
		if k.errs[i] != nil {
			continue
		}
		k.stats.Snapshots++
		k.stats.Bytes += int64(j.bytes)
		if k.durable[j.rec.Step]++; k.durable[j.rec.Step] == k.hosted {
			delete(k.durable, j.rec.Step)
			k.stats.Cuts++
		}
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
	close(k.queue)
	for i := range k.ranks {
		if rc := &k.ranks[i]; rc.w != nil {
			rc.w.Close()
		}
	}
	<-k.flushed
}

// Recoverable reports whether err is a failure Run rolls back from: an
// abort (peer-induced or injected), a superstep timeout, or an injected
// hard crash. Program panics and infrastructure errors outside these
// classes fail the run immediately.
func Recoverable(err error) bool {
	return errors.Is(err, transport.ErrAborted) ||
		errors.Is(err, transport.ErrInjectedAbort) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, transport.ErrCrashed)
}

// Run executes fn as P BSP processes and returns the merged per-
// superstep statistics. Run returns an error if any process panics or
// if the transport fails; the first failure aborts the whole machine.
//
// Every process must execute the same number of supersteps (call Sync
// the same number of times); diverging superstep counts are reported as
// errors by the concurrent transports.
//
// With cfg.Checkpoint armed (a Dir), Run captures a cut at every
// eligible boundary at which the ranks keep state (Proc.Keep) and
// survives recoverable failures: on ErrAborted, ErrTimeout or an
// injected crash it rolls every rank back to the latest complete
// snapshot in cfg.Checkpoint.Dir — or to superstep 0 if none exists, so
// fn must build its state from its inputs, not from what an earlier
// attempt left behind — and re-executes, up to Retries attempts with
// doubling Backoff. A persistent fault therefore still fails, with the
// original error — never a silent retry loop. Without checkpointing the
// machine executes once and the first failure is final. The returned
// Stats describe the final attempt only, with Stats.Ckpt summarizing
// capture and recovery across all attempts.
func Run(cfg Config, fn func(*Proc)) (*Stats, error) {
	ck := cfg.Checkpoint
	if ck == nil || ck.Dir == "" {
		return runMachine(cfg, fn, nil)
	}
	if !keptLayout {
		return nil, errors.New("bsp: checkpointing needs a little-endian host with 64-bit ints")
	}
	store := &ckpt.Store{Dir: ck.Dir}
	load := func() []*ckpt.Snapshot {
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
		rs := &runState{cap: newCapturer(ck, cfg.P), resume: resume}
		st, err := runMachine(cfg, fn, rs)
		// runMachine drained the flusher; the capturer is quiescent.
		cs := rs.cap.stats
		acc.Snapshots += cs.Snapshots
		acc.Cuts += cs.Cuts
		acc.Bytes += cs.Bytes
		acc.Time += cs.Time
		acc.Flush += cs.Flush
		if acc.Err == nil {
			acc.Err = cs.Err
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
