package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Trace and bundle audits: the invariants bspobs check and bspobs post
// enforce on the files bsprun writes, and that the recovery tests
// enforce on the files their gangs write. Both return every violation
// found, one per line of the error (errors.Join), so a report names
// all of them.

// CheckOptions selects the audits Check runs beyond span coverage.
type CheckOptions struct {
	// Ranks is the number of rank tracks the trace must cover.
	Ranks int
	// RequireCrash and RequireRollback fail a trace that lacks a chaos
	// crash marker or a rollback marker.
	RequireCrash, RequireRollback bool
	// CheckPairs reconciles, for every (rank, superstep), the packet
	// units of the per-(src,dst) batch handoffs with the sync span's
	// counters once self-delivered packets are subtracted:
	//
	//	Σ pkts of "batch to *" from rank  == sent_pkts − self_pkts
	//	Σ pkts of "batch to rank"         == recv_pkts − self_pkts
	//
	// It needs every handoff to be visible as a Pair event, which holds
	// on the batching transports in a clean run. A trace with a
	// rollback double-counts the handoffs of re-executed supersteps, so
	// there the audit is skipped (Summary.PairsChecked stays 0).
	CheckPairs bool
}

// Summary is what Check saw in a trace.
type Summary struct {
	Events             int // trace events in the file
	Steps              int // supersteps executed: 1 + the largest seen
	Crashes, Rollbacks int // chaos crash and rollback markers
	PairsChecked       int // (rank, superstep) packet reconciliations
	// LastSync maps each rank to the largest superstep of its sync
	// spans, for reconciling the trace against another per-rank view.
	LastSync map[int]int
}

// Check audits a Chrome trace-event document as WriteChrome renders it:
// it must parse, and every rank track 0..Ranks-1 must carry a
// "superstep N" span for every superstep from 0 to the largest seen on
// any track; opts adds the marker and packet audits.
func Check(r io.Reader, opts CheckOptions) (Summary, error) {
	var doc chromeTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Summary{}, fmt.Errorf("not valid trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return Summary{}, errors.New("no trace events")
	}
	sum := Summary{Events: len(doc.TraceEvents), LastSync: map[int]int{}}

	type rankStep struct{ rank, step int }
	spans := map[rankStep]int{}
	maxStep := -1
	var problems []error
	problem := func(format string, args ...any) { problems = append(problems, fmt.Errorf(format, args...)) }
	// Packet accounting per (rank, step): the sync-span counters and the
	// pair handoffs each rank sent and received.
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
			spans[rankStep{e.Tid, step}]++
			maxStep = max(maxStep, step)
			if e.Dur != nil && *e.Dur < 0 {
				problem("negative duration on %q (tid %d)", e.Name, e.Tid)
			}
		case e.Ph == "X" && e.Name == "sync (exchange+wait)":
			step, ok := argInt(e.Args, "step")
			if !ok {
				continue
			}
			sent, _ := argInt(e.Args, "sent_pkts")
			recv, _ := argInt(e.Args, "recv_pkts")
			self, _ := argInt(e.Args, "self_pkts")
			key := rankStep{e.Tid, int(step)}
			c := syncs[key]
			c.sent += sent
			c.recv += recv
			c.self += self
			syncs[key] = c
			if cur, ok := sum.LastSync[e.Tid]; !ok || key.step > cur {
				sum.LastSync[e.Tid] = key.step
			}
		case e.Ph == "i" && strings.HasPrefix(e.Name, "batch to "):
			step, okS := argInt(e.Args, "step")
			dst, okD := argInt(e.Args, "dst")
			pkts, okP := argInt(e.Args, "pkts")
			if !okS || !okD || !okP {
				continue
			}
			pairSent[rankStep{e.Tid, int(step)}] += pkts
			pairRecv[rankStep{int(dst), int(step)}] += pkts
		case e.Name == FaultCrash.String():
			sum.Crashes++
		case strings.HasPrefix(e.Name, "rollback to superstep"):
			sum.Rollbacks++
		}
	}
	sum.Steps = maxStep + 1

	if maxStep < 0 {
		problem("no superstep spans")
	}
	for rank := 0; rank < opts.Ranks; rank++ {
		for step := 0; step <= maxStep; step++ {
			if spans[rankStep{rank, step}] < 1 {
				problem("rank %d has no superstep %d span", rank, step)
			}
		}
	}
	if opts.RequireCrash && sum.Crashes == 0 {
		problem("no chaos crash marker (required)")
	}
	if opts.RequireRollback && sum.Rollbacks == 0 {
		problem("no rollback marker (required)")
	}
	if opts.CheckPairs && sum.Rollbacks == 0 {
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
			sum.PairsChecked++
		}
		if sum.PairsChecked == 0 {
			problem("the pair audit found no sync spans to audit")
		}
	}
	return sum, errors.Join(problems...)
}

// argInt reads an integer-valued arg (encoding/json gives float64).
func argInt(args map[string]any, key string) (int64, bool) {
	f, ok := args[key].(float64)
	return int64(f), ok
}

// CheckBundle reads and audits a postmortem bundle directory as
// WriteDump and GatherBundle leave it: every rank<r>/dump-e<epoch>.json
// parses, lives in its own rank's directory under its epoch's name,
// holds time-sorted events of its own rank (or the machine track) and
// reconciles its ring truncation marker (dropped + retained == total
// ever recorded); every dump shares one job identity and has a reason;
// MANIFEST.json indexes exactly the dumps on disk; and every rank
// 0..P-1 of the job dumped at least once. It returns the dumps it
// read, sorted by (rank, epoch), also alongside problems, so a report
// can still be made from an incomplete bundle; it returns none only
// when none could be read.
func CheckBundle(dir string) ([]Dump, error) {
	var problems []error
	problem := func(format string, args ...any) { problems = append(problems, fmt.Errorf(format, args...)) }
	dumps, files, err := scanBundle(dir)
	if err != nil {
		problems = append(problems, err)
	}
	if len(dumps) == 0 {
		problem("no postmortem dumps under %s", dir)
		return nil, errors.Join(problems...)
	}

	type key struct{ rank, epoch int }
	onDisk := map[key]string{} // -> path relative to dir
	dumped := map[int]bool{}
	job, p := dumps[0].Job, dumps[0].P
	for i, d := range dumps {
		rel := files[i]
		// The layout the gathering and the analyzer key on.
		if want := fmt.Sprintf("rank%d", d.Rank); filepath.Base(filepath.Dir(rel)) != want {
			problem("%s: dump claims rank %d but lives in %s/", rel, d.Rank, filepath.Base(filepath.Dir(rel)))
		}
		if want := dumpName(d.Epoch); filepath.Base(rel) != want {
			problem("%s: dump claims epoch %d but is named %s", rel, d.Epoch, filepath.Base(rel))
		}
		if d.RingDropped+uint64(len(d.Events)) != d.RingTotal {
			problem("%s: ring accounting broken: %d dropped + %d retained != %d total",
				rel, d.RingDropped, len(d.Events), d.RingTotal)
		}
		for j, e := range d.Events {
			if j > 0 && e.Start < d.Events[j-1].Start {
				problem("%s: events not time-sorted at index %d", rel, j)
				break
			}
			if int(e.Rank) != d.Rank && e.Rank != MachineRank {
				problem("%s: event %d belongs to rank %d, not the dumping rank %d", rel, j, e.Rank, d.Rank)
				break
			}
		}
		if d.Reason == "" {
			problem("%s: dump has no reason", rel)
		}
		if d.Rank < 0 || d.Rank >= p {
			problem("%s: dump claims rank %d outside p=%d", rel, d.Rank, p)
		}
		if d.Job != job || d.P != p {
			problem("%s: job identity (%q, p=%d) differs from the bundle's (%q, p=%d)", rel, d.Job, d.P, job, p)
		}
		k := key{d.Rank, d.Epoch}
		if prev, dup := onDisk[k]; dup {
			problem("%s: duplicate dump for rank %d epoch %d (also %s)", rel, d.Rank, d.Epoch, prev)
		}
		onDisk[k] = rel
		dumped[d.Rank] = true
	}

	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		problem("bundle was never gathered: %v", err)
	} else {
		var man BundleManifest
		if err := json.Unmarshal(raw, &man); err != nil {
			problem("%s: %v", ManifestName, err)
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
			for i, d := range dumps {
				if !inManifest[key{d.Rank, d.Epoch}] {
					problem("%s is on disk but not in the manifest", files[i])
				}
			}
		}
	}

	for r := 0; r < p; r++ {
		if !dumped[r] {
			problem("rank %d left no dump (bundle incomplete)", r)
		}
	}
	return dumps, errors.Join(problems...)
}
