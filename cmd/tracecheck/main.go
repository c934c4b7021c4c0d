// Command tracecheck validates a Chrome trace-event JSON file written
// by bsprun -trace. It is the CI gate of the trace smoke job: the
// file must parse, every rank track must carry at least one
// "superstep N" span for every superstep the run executed (0 through
// the largest superstep seen anywhere), and — for fault-injected runs
// — the crash and rollback markers must be present when required.
//
// With -check-pairs it also audits the trace's packet accounting: for
// every (rank, superstep), the packet units of the per-(src,dst) batch
// handoff events must reconcile with the sync span's sent/received
// packet counters once self-delivered packets are subtracted (see
// trace.CheckOptions). When the trace contains a rollback, re-executed
// supersteps double-count handoffs, so the pair check is skipped with
// a notice.
//
// With -status it cross-validates a bsprun -status-dump document
// against the trace: the job shape must match, every rank must have
// reported, and on rollback-free runs each rank's last_step must equal
// the largest sync-span superstep of its trace track.
//
// With -postmortem the argument is a crash postmortem bundle directory
// (bsprun -postmortem-dir) instead of a trace file, and the audit
// switches to the dump and manifest invariants of trace.CheckBundle;
// with -ranks N every rank 0..N-1 must have dumped at least once:
//
//	tracecheck -postmortem -ranks 4 /tmp/bundle
//
// Usage:
//
//	tracecheck -ranks 4 [-require-crash] [-require-rollback] [-check-pairs] trace.json
//
// Exit status is nonzero on any violation, with one line per problem.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	ranks := flag.Int("ranks", 0, "number of rank tracks the trace must cover (required)")
	requireCrash := flag.Bool("require-crash", false, "fail unless a chaos crash marker is present")
	requireRollback := flag.Bool("require-rollback", false, "fail unless a rollback marker is present")
	checkPairs := flag.Bool("check-pairs", false, "audit per-(src,dst) batch packet totals against each sync span's sent/recv counters (clean runs on batching transports)")
	postmortem := flag.Bool("postmortem", false, "the argument is a postmortem bundle directory (bsprun -postmortem-dir); validate the dump and manifest invariants instead of a Chrome trace")
	statusFile := flag.String("status", "", "final /status JSON document (bsprun -status-dump): cross-validate the telemetry plane's per-rank last-superstep view against the trace timeline")
	flag.Parse()
	if *ranks <= 0 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck -ranks N [-require-crash] [-require-rollback] [-check-pairs] [-status status.json] <trace.json>")
		fmt.Fprintln(os.Stderr, "       tracecheck -postmortem -ranks N <bundle-dir>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	if *postmortem {
		dumps, err := trace.CheckBundle(path, *ranks)
		if err != nil {
			fail(err)
		}
		dumped := map[int]bool{}
		events := 0
		for _, d := range dumps {
			dumped[d.Rank] = true
			events += len(d.Events)
		}
		fmt.Printf("tracecheck: %s ok — postmortem bundle, job %s, %d dump(s) over %d rank(s), %d ring events\n",
			path, dumps[0].Job, len(dumps), len(dumped), events)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		fail(fmt.Errorf("read: %w", err))
	}
	sum, err := trace.Check(f, trace.CheckOptions{
		Ranks: *ranks, RequireCrash: *requireCrash, RequireRollback: *requireRollback, CheckPairs: *checkPairs,
	})
	f.Close()
	bad := report(err)
	if *checkPairs && sum.Rollbacks > 0 {
		fmt.Printf("tracecheck: %s has %d rollback(s); pair accounting skipped (re-executed supersteps double-count handoffs)\n", path, sum.Rollbacks)
	}
	if *statusFile != "" && sum.Events > 0 {
		// The telemetry plane and the trace recorder observe the same
		// SyncSpan instrumentation through independent paths (delta
		// frames over the control plane vs merged shard files); their
		// per-rank last-superstep views must agree exactly.
		bad += report(checkStatus(*statusFile, *ranks, sum))
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s ok — %d events, %d ranks x %d supersteps, %d crash(es), %d rollback(s)",
		path, sum.Events, *ranks, sum.Steps, sum.Crashes, sum.Rollbacks)
	if sum.PairsChecked > 0 {
		fmt.Printf(", %d (rank,superstep) packet reconciliations", sum.PairsChecked)
	}
	fmt.Println()
}

// checkStatus cross-validates a bsprun -status-dump document against
// the trace timeline. With rollbacks the merged trace holds spans from
// dead generations whose shard set may be incomplete, so the per-step
// comparison is skipped with a notice (both views are monotone, but
// over different event subsets).
func checkStatus(path string, ranks int, sum trace.Summary) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var doc transport.StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("status: %s is not a /status document: %w", path, err)
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
		fmt.Printf("tracecheck: %s has %d rollback(s); status last-step cross-check skipped (trace spans span generations)\n", path, sum.Rollbacks)
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

// report prints err one problem per line and returns how many it held.
func report(err error) int {
	if err == nil {
		return 0
	}
	lines := strings.Split(err.Error(), "\n")
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "tracecheck: %s\n", l)
	}
	return len(lines)
}

func fail(err error) {
	report(err)
	os.Exit(1)
}
