package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// check validates a Chrome trace-event JSON file written by
// bsprun -trace. It is the CI gate of the trace smokes: the file must
// parse, every rank track must carry at least one "superstep N" span
// for every superstep the run executed (0 through the largest
// superstep seen anywhere), and — for fault-injected runs — the crash
// and rollback markers must be present when required.
//
// With -check-pairs it also audits the trace's packet accounting: for
// every (rank, superstep), the packet units of the per-(src,dst) batch
// handoff events must reconcile with the sync span's sent/received
// packet counters once self-delivered packets are subtracted (see
// trace.CheckOptions). When the trace contains a rollback, re-executed
// supersteps double-count handoffs, so the pair check is skipped with
// a notice.
//
// With -status it cross-validates a /status document (the bsprun
// -status-dump file, or a live coordinator URL) against the trace: the
// job shape must match, every rank must have reported, and on
// rollback-free runs each rank's last_step must equal the largest
// sync-span superstep of its trace track.
//
// Problems go to stderr, one line each, and exit 1; a clean trace
// prints one summary line ending in "N crash(es), M rollback(s)".
func check(args []string, stdout, stderr io.Writer) int {
	fs := flags("check", "-ranks N [-require-crash] [-require-rollback] [-check-pairs] [-status src] <trace.json>", stderr)
	ranks := fs.Int("ranks", 0, "number of rank tracks the trace must cover (required)")
	requireCrash := fs.Bool("require-crash", false, "fail unless a chaos crash marker is present")
	requireRollback := fs.Bool("require-rollback", false, "fail unless a rollback marker is present")
	checkPairs := fs.Bool("check-pairs", false, "audit per-(src,dst) batch packet totals against each sync span's sent/recv counters (clean runs on batching transports)")
	status := fs.String("status", "", "final /status document (bsprun -status-dump, or a coordinator URL): cross-validate the telemetry plane's per-rank last-superstep view against the trace timeline")
	path, ok := source(fs, args)
	if !ok {
		return 2
	}
	if *ranks <= 0 {
		fs.Usage()
		return 2
	}

	f, err := os.Open(path)
	if err != nil {
		complain(stderr, "check", fmt.Errorf("read: %w", err))
		return 1
	}
	sum, err := trace.Check(f, trace.CheckOptions{
		Ranks: *ranks, RequireCrash: *requireCrash, RequireRollback: *requireRollback, CheckPairs: *checkPairs,
	})
	f.Close()
	bad := complain(stderr, "check", err)
	if *checkPairs && sum.Rollbacks > 0 {
		fmt.Fprintf(stdout, "bspobs check: %s has %d rollback(s); pair accounting skipped (re-executed supersteps double-count handoffs)\n", path, sum.Rollbacks)
	}
	if *status != "" && sum.Events > 0 {
		// The telemetry plane and the trace recorder observe the same
		// SyncSpan instrumentation through independent paths (delta
		// frames over the control plane vs merged shard files); their
		// per-rank last-superstep views must agree exactly.
		bad += complain(stderr, "check", checkStatus(stdout, *status, *ranks, sum))
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "bspobs check: %s ok — %d events, %d ranks x %d supersteps, %d crash(es), %d rollback(s)",
		path, sum.Events, *ranks, sum.Steps, sum.Crashes, sum.Rollbacks)
	if sum.PairsChecked > 0 {
		fmt.Fprintf(stdout, ", %d (rank,superstep) packet reconciliations", sum.PairsChecked)
	}
	fmt.Fprintln(stdout)
	return 0
}

// checkStatus cross-validates a /status document against the trace
// timeline. With rollbacks the merged trace holds spans from dead
// generations whose shard set may be incomplete, so the per-step
// comparison is skipped with a notice (both views are monotone, but
// over different event subsets).
func checkStatus(stdout io.Writer, src string, ranks int, sum trace.Summary) error {
	doc, err := loadStatus(src)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var problems []error
	problem := func(format string, args ...any) { problems = append(problems, fmt.Errorf("status: "+format, args...)) }
	if doc.P != ranks {
		problem("document describes p=%d, trace audited for %d ranks", doc.P, ranks)
	}
	if len(doc.Ranks) != doc.P {
		problem("%d rank rows for p=%d", len(doc.Ranks), doc.P)
		return errors.Join(problems...)
	}
	for _, row := range doc.Ranks {
		if row.Seq == 0 {
			problem("rank %d never sent a beat with telemetry", row.Rank)
		}
	}
	if sum.Rollbacks > 0 {
		fmt.Fprintf(stdout, "bspobs check: %s has %d rollback(s); status last-step cross-check skipped (trace spans span generations)\n", src, sum.Rollbacks)
		return errors.Join(problems...)
	}
	for _, row := range doc.Ranks {
		want := int64(-1)
		if s, ok := sum.LastSync[row.Rank]; ok {
			want = int64(s)
		}
		if row.LastStep != want {
			problem("rank %d last_step=%d, trace timeline shows %d", row.Rank, row.LastStep, want)
		}
	}
	return errors.Join(problems...)
}
