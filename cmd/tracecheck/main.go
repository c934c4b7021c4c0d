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
// packet counters once self-delivered packets (which never cross a
// pair) are subtracted:
//
//	Σ pkts of "batch to *" from rank  == sent_pkts − self_pkts
//	Σ pkts of "batch to rank"         == recv_pkts − self_pkts
//
// The audit needs every handoff to be visible as a Pair event, which
// holds on the batching transports (shm, xchg, tcp, sim) in a clean
// run; when the trace contains a rollback, re-executed supersteps
// double-count handoffs, so the pair check is skipped with a notice.
//
// With -postmortem the argument is a crash postmortem bundle directory
// (bsprun -postmortem-dir) instead of a trace file, and the audit
// switches to the dump invariants: every rank<r>/dump-e<epoch>.json
// must parse, carry time-sorted events that belong to its rank, and
// reconcile its ring truncation marker (dropped + retained == total
// ever recorded); the MANIFEST.json must index exactly the dumps on
// disk with matching rank/epoch/file entries; and with -ranks N every
// rank 0..N-1 must have dumped at least once:
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/transport"
)

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// argInt reads an integer-valued arg (encoding/json gives float64).
func (e *traceEvent) argInt(key string) (int64, bool) {
	v, ok := e.Args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}

type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

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
		checkPostmortem(path, *ranks)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("read: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatal("%s is not valid trace-event JSON: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		fatal("%s has no trace events", path)
	}

	// superstep spans per (tid, step); the largest step seen anywhere
	// defines how many supersteps the run executed.
	spans := map[int]map[int]int{}
	maxStep := -1
	crashes, rollbacks := 0, 0
	// Packet accounting per (rank, step): sync-span counters and the
	// pair handoffs each rank sent and received.
	type rankStep struct{ rank, step int }
	type syncCounters struct{ sent, recv, self int64 }
	syncs := map[rankStep]syncCounters{}
	pairSent := map[rankStep]int64{}
	pairRecv := map[rankStep]int64{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && strings.HasPrefix(e.Name, "superstep "):
			var step int
			if _, err := fmt.Sscanf(e.Name, "superstep %d", &step); err != nil {
				continue
			}
			if spans[e.Tid] == nil {
				spans[e.Tid] = map[int]int{}
			}
			spans[e.Tid][step]++
			if step > maxStep {
				maxStep = step
			}
			if e.Dur < 0 {
				fatal("negative duration on %q (tid %d)", e.Name, e.Tid)
			}
		case e.Ph == "X" && e.Name == "sync (exchange+wait)":
			step, ok := e.argInt("step")
			if !ok {
				continue
			}
			sent, _ := e.argInt("sent_pkts")
			recv, _ := e.argInt("recv_pkts")
			self, _ := e.argInt("self_pkts")
			key := rankStep{e.Tid, int(step)}
			c := syncs[key]
			c.sent += sent
			c.recv += recv
			c.self += self
			syncs[key] = c
		case e.Ph == "i" && strings.HasPrefix(e.Name, "batch to "):
			step, okS := e.argInt("step")
			dst, okD := e.argInt("dst")
			pkts, okP := e.argInt("pkts")
			if !okS || !okD || !okP {
				continue
			}
			pairSent[rankStep{e.Tid, int(step)}] += pkts
			pairRecv[rankStep{int(dst), int(step)}] += pkts
		case e.Name == "chaos crash":
			crashes++
		case strings.HasPrefix(e.Name, "rollback to superstep"):
			rollbacks++
		}
	}

	bad := 0
	problem := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
		bad++
	}
	if maxStep < 0 {
		problem("no superstep spans in %s", path)
	}
	for rank := 0; rank < *ranks; rank++ {
		for step := 0; step <= maxStep; step++ {
			if spans[rank][step] < 1 {
				problem("rank %d has no superstep %d span", rank, step)
			}
		}
	}
	if *requireCrash && crashes == 0 {
		problem("no chaos crash marker (required)")
	}
	if *requireRollback && rollbacks == 0 {
		problem("no rollback marker (required)")
	}
	if *statusFile != "" {
		// The telemetry plane and the trace recorder observe the same
		// SyncSpan instrumentation through independent paths (delta
		// frames over the control plane vs merged shard files); their
		// per-rank last-superstep views must agree exactly.
		maxSync := map[int]int{}
		for k := range syncs {
			if cur, ok := maxSync[k.rank]; !ok || k.step > cur {
				maxSync[k.rank] = k.step
			}
		}
		checkStatus(*statusFile, *ranks, rollbacks, maxSync, problem)
	}
	pairsChecked := 0
	if *checkPairs {
		if rollbacks > 0 {
			// A rolled-back attempt leaves handoffs for supersteps whose
			// sync spans only exist in the re-execution; the per-step sums
			// no longer pair up one-to-one.
			fmt.Printf("tracecheck: %s has %d rollback(s); pair accounting skipped (re-executed supersteps double-count handoffs)\n", path, rollbacks)
		} else {
			// Deterministic order for the problem report.
			keys := make([]rankStep, 0, len(syncs))
			for k := range syncs {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].step != keys[j].step {
					return keys[i].step < keys[j].step
				}
				return keys[i].rank < keys[j].rank
			})
			for _, k := range keys {
				c := syncs[k]
				if got, want := pairSent[k], c.sent-c.self; got != want {
					problem("rank %d superstep %d: batch handoffs carry %d sent packet units, sync span counted %d (sent %d - self %d)",
						k.rank, k.step, got, want, c.sent, c.self)
				}
				if got, want := pairRecv[k], c.recv-c.self; got != want {
					problem("rank %d superstep %d: batch handoffs deliver %d packet units, sync span counted %d (recv %d - self %d)",
						k.rank, k.step, got, want, c.recv, c.self)
				}
				pairsChecked++
			}
			if pairsChecked == 0 {
				problem("-check-pairs found no sync spans to audit")
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s ok — %d events, %d ranks x %d supersteps, %d crash(es), %d rollback(s)",
		path, len(doc.TraceEvents), *ranks, maxStep+1, crashes, rollbacks)
	if pairsChecked > 0 {
		fmt.Printf(", %d (rank,superstep) packet reconciliations", pairsChecked)
	}
	fmt.Println()
}

// checkStatus cross-validates a bsprun -status-dump document against
// the trace timeline: the job shape must match, every rank must have
// reported, and — on rollback-free runs — each rank's last_step must
// equal the largest sync-span superstep its trace track carries. With
// rollbacks the merged trace holds spans from dead generations whose
// shard set may be incomplete, so the per-step comparison is skipped
// with a notice (both views are monotone, but over different event
// subsets).
func checkStatus(path string, ranks, rollbacks int, maxSync map[int]int, problem func(string, ...any)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		problem("status: %v", err)
		return
	}
	var doc transport.StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		problem("status: %s is not a /status document: %v", path, err)
		return
	}
	if doc.P != ranks {
		problem("status: document describes p=%d, trace audited for %d ranks", doc.P, ranks)
	}
	if len(doc.Ranks) != doc.P {
		problem("status: %d rank rows for p=%d", len(doc.Ranks), doc.P)
		return
	}
	for _, row := range doc.Ranks {
		if row.Seq == 0 {
			problem("status: rank %d never sent a beat with telemetry", row.Rank)
		}
	}
	if rollbacks > 0 {
		fmt.Printf("tracecheck: %s has %d rollback(s); status last-step cross-check skipped (trace spans span generations)\n", path, rollbacks)
		return
	}
	for _, row := range doc.Ranks {
		want := int64(-1)
		if s, ok := maxSync[row.Rank]; ok {
			want = int64(s)
		}
		if row.LastStep != want {
			problem("status: rank %d last_step=%d, trace timeline shows %d", row.Rank, row.LastStep, want)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}

// checkPostmortem audits a crash postmortem bundle: every dump on disk
// must hold the flight-recorder invariants, the manifest must index
// exactly those dumps, and every rank of the gang must have one.
func checkPostmortem(dir string, ranks int) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank*", "dump-*.json"))
	if err != nil {
		fatal("scan %s: %v", dir, err)
	}
	if len(paths) == 0 {
		fatal("no postmortem dumps under %s", dir)
	}
	sort.Strings(paths)

	bad := 0
	problem := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
		bad++
	}

	type key struct{ rank, epoch int }
	onDisk := map[key]string{} // -> path relative to dir
	dumped := map[int]bool{}   // ranks with at least one dump
	job, p := "", 0
	events := 0
	for i, path := range paths {
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			rel = path
		}
		d, err := trace.ReadDump(path)
		if err != nil {
			problem("%s: %v", rel, err)
			continue
		}
		// The dump must live in its own rank's directory under its
		// epoch's name — the layout the gathering and the analyzer key
		// on.
		if want := fmt.Sprintf("rank%d", d.Rank); filepath.Base(filepath.Dir(path)) != want {
			problem("%s: dump claims rank %d but lives in %s/", rel, d.Rank, filepath.Base(filepath.Dir(path)))
		}
		if want := fmt.Sprintf("dump-e%d.json", d.Epoch); filepath.Base(path) != want {
			problem("%s: dump claims epoch %d but is named %s", rel, d.Epoch, filepath.Base(path))
		}
		// Ring truncation marker: dropped + retained must account for
		// every event the ring ever recorded.
		if d.RingDropped+uint64(len(d.Events)) != d.RingTotal {
			problem("%s: ring accounting broken: %d dropped + %d retained != %d total",
				rel, d.RingDropped, len(d.Events), d.RingTotal)
		}
		// Events are one rank's timeline: time-sorted, owned by the
		// dumping rank (or the machine track, rank -1).
		for j, e := range d.Events {
			if j > 0 && e.Start < d.Events[j-1].Start {
				problem("%s: events not time-sorted at index %d", rel, j)
				break
			}
			if int(e.Rank) != d.Rank && e.Rank != trace.MachineRank {
				problem("%s: event %d belongs to rank %d, not the dumping rank %d", rel, j, e.Rank, d.Rank)
				break
			}
		}
		if d.Reason == "" {
			problem("%s: dump has no reason", rel)
		}
		// Every dump in a bundle shares the job identity.
		if i == 0 {
			job, p = d.Job, d.P
		} else if d.Job != job || d.P != p {
			problem("%s: job identity (%q, p=%d) differs from the bundle's (%q, p=%d)", rel, d.Job, d.P, job, p)
		}
		k := key{d.Rank, d.Epoch}
		if prev, dup := onDisk[k]; dup {
			problem("%s: duplicate dump for rank %d epoch %d (also %s)", rel, d.Rank, d.Epoch, prev)
		}
		onDisk[k] = rel
		dumped[d.Rank] = true
		events += len(d.Events)
	}

	// The manifest must index exactly the dumps on disk.
	raw, err := os.ReadFile(filepath.Join(dir, trace.ManifestName))
	if err != nil {
		problem("bundle was never gathered: %v", err)
	} else {
		var man trace.BundleManifest
		if err := json.Unmarshal(raw, &man); err != nil {
			problem("%s: %v", trace.ManifestName, err)
		} else {
			if man.Job != job || man.P != p {
				problem("manifest identity (%q, p=%d) differs from the dumps' (%q, p=%d)", man.Job, man.P, job, p)
			}
			inManifest := map[key]bool{}
			for _, e := range man.Dumps {
				k := key{e.Rank, e.Epoch}
				inManifest[k] = true
				if got, ok := onDisk[k]; !ok {
					problem("manifest indexes rank %d epoch %d but no such dump is on disk", e.Rank, e.Epoch)
				} else if got != e.File {
					problem("manifest names %s for rank %d epoch %d, dump is at %s", e.File, e.Rank, e.Epoch, got)
				}
			}
			for k, rel := range onDisk {
				if !inManifest[k] {
					problem("%s is on disk but not in the manifest", rel)
				}
			}
		}
	}

	// Gang coverage: a complete bundle has forensics from every rank.
	for r := 0; r < ranks; r++ {
		if !dumped[r] {
			problem("rank %d left no dump (bundle incomplete)", r)
		}
	}

	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s ok — postmortem bundle, job %s, %d dump(s) over %d rank(s), %d ring events\n",
		dir, job, len(onDisk), len(dumped), events)
}
