package core

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/trace"
	"repro/internal/transport"
)

// PostmortemConfig arms crash forensics: when a machine run fails with
// a crash, a timeout or an abort, every locally-hosted rank dumps its
// flight-recorder ring, a metrics snapshot and the process's goroutine
// stacks into Dir/rank<r>/ (see trace.WriteDump for the layout). With
// Postmortem armed and Trace nil, runMachine arms a flight-only
// recorder automatically, so the forensics work on runs that were
// never launched with tracing — the always-on case the flight ring
// exists for. On cluster transports the coordinator's ctrl "dump"
// broadcast also triggers a dump, so survivors of a convicted rank
// persist their view of the dead generation too.
type PostmortemConfig struct {
	// Dir is the bundle directory; empty disables (the nil-config
	// equivalent).
	Dir string
	// Job stamps the dumps so a bundle merges like a trace-shard set;
	// all ranks of one job must agree. Empty means "local".
	Job string

	// One dump per (rank, epoch): the same failure is observed by the
	// local failure path and, on clusters, the coordinator's dump
	// broadcast, from different goroutines. First writer wins. The
	// config is shared across Run's recovery attempts (it is a pointer
	// on Config), so the map also spans attempts.
	mu   sync.Mutex
	done map[[2]int]bool
}

// armed reports whether dumps should happen at all. Nil-safe.
func (pm *PostmortemConfig) armed() bool { return pm != nil && pm.Dir != "" }

func (pm *PostmortemConfig) jobID() string {
	if pm.Job == "" {
		return "local"
	}
	return pm.Job
}

// dump writes rank's postmortem once per (rank, epoch). Safe from any
// goroutine; a dump failure is reported on stderr but never fails the
// run — forensics must not turn a crash into a different crash.
func (pm *PostmortemConfig) dump(rec *trace.Recorder, rank, epoch int, reason string) {
	if !pm.armed() || rec == nil {
		return
	}
	// The lock is held across the write: the loser of a race returns only
	// once the winner's dump is on disk, so the rank goroutine cannot exit
	// the process under a control-reader goroutine that is still writing.
	key := [2]int{rank, epoch}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.done == nil {
		pm.done = make(map[[2]int]bool)
	}
	if pm.done[key] {
		return
	}
	pm.done[key] = true
	d := rec.Postmortem(pm.jobID(), rank, epoch, reason)
	if _, err := trace.WriteDump(pm.Dir, d, trace.GoroutineStacks()); err != nil {
		fmt.Fprintf(os.Stderr, "bsp: postmortem dump for rank %d: %v\n", rank, err)
	}
}

// dumpWorthy reports whether a run failure is the kind a postmortem
// explains: a crash (injected or liveness-declared), a wedged barrier,
// or the abort wave either one fans out — the same vocabulary
// Recoverable classifies. A plain program bug (a panic in fn with no
// transport involvement) is left to the panic report.
func dumpWorthy(err error) bool {
	return errors.Is(err, transport.ErrCrashed) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, transport.ErrAborted) ||
		errors.Is(err, transport.ErrInjectedAbort)
}
