package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Postmortem bundles: the crash-forensics output of the flight
// recorder. When a run dies — ErrCrashed, ErrTimeout, a liveness
// conviction — every rank dumps its flight ring, a metrics snapshot
// and its goroutine stacks into <dir>/rank<r>/, and the launcher
// gathers the per-rank dumps into one bundle with a MANIFEST.json.
// CheckBundle reads a bundle back and validates its internal
// consistency, for bspobs post and the recovery tests; bspobs post
// then merges the dumps onto a single timeline (each dump embeds a
// Shard, so MergeShards does the heavy lifting) and prints the
// root-cause report.

// Dump is one rank's postmortem: the retained flight-ring events plus
// the forensic context that explains them. It embeds the Shard it is
// (job, rank, p, epoch_unix_nano, events — the ring contents, sorted by
// start time), so bundles merge with the exact machinery -trace shards
// use.
type Dump struct {
	Shard
	// Epoch is the gang generation the rank was running when it
	// dumped (0 for a first attempt; bumped by recovery).
	Epoch int `json:"epoch"`
	// Reason is the error or conviction notice that triggered the dump.
	Reason string `json:"reason"`
	// RingTotal counts every event the rank ever recorded; RingDropped
	// is how many the fixed-size ring had already overwritten, i.e.
	// RingDropped + len(Events) == RingTotal. A nonzero RingDropped is
	// the truncation marker: the dump is a suffix of the history.
	RingTotal   uint64 `json:"ring_total"`
	RingDropped uint64 `json:"ring_dropped"`
	// Metrics is the full counter snapshot at dump time; the rank's row
	// carries the newest heartbeat it sent before dying — the liveness
	// protocol's view.
	Metrics Snapshot `json:"metrics"`
}

// LastCompletedStep returns the highest superstep whose barrier the
// rank completed (the max KindSync step in the dump), or -1 if none.
func (d Dump) LastCompletedStep() int {
	last := -1
	for _, e := range d.Events {
		if e.Kind == KindSync && int(e.Step) > last {
			last = int(e.Step)
		}
	}
	return last
}

// Postmortem snapshots rank's flight ring and the metrics into a Dump.
// Safe while other ranks of the process are still running: it reads
// only the ring (every slot validated against its ticket) and the atomic counters, never the
// event slices.
func (r *Recorder) Postmortem(job string, rank, epoch int, reason string) Dump {
	d := Dump{Shard: Shard{Job: job, Rank: rank, P: r.P()}, Epoch: epoch, Reason: reason}
	if r == nil {
		return d
	}
	d.EpochUnixNano = r.epoch.UnixNano()
	events, total := r.Rank(rank).RingSnapshot()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	d.Events = events
	d.RingTotal = total
	d.RingDropped = total - uint64(len(events))
	d.Metrics = r.m.Snapshot()
	return d
}

// GoroutineStacks captures every goroutine's stack, the classic "where
// was everyone when it died" artifact of a postmortem.
func GoroutineStacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// dumpName returns the dump filename for an epoch; one dump per
// (rank, epoch) is the bundle invariant core's dedup enforces.
func dumpName(epoch int) string { return fmt.Sprintf("dump-e%d.json", epoch) }

// WriteDump atomically persists d (and, when non-empty, the goroutine
// stacks) under dir/rank<r>/: the JSON is written to a temp file and
// renamed into place, so a bundle never contains a half-written dump
// even if the process dies mid-write. It returns the dump file path.
func WriteDump(dir string, d Dump, stacks []byte) (string, error) {
	rd := filepath.Join(dir, fmt.Sprintf("rank%d", d.Rank))
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(rd, dumpName(d.Epoch))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	if len(stacks) > 0 {
		sp := filepath.Join(rd, fmt.Sprintf("stacks-e%d.txt", d.Epoch))
		stmp := sp + ".tmp"
		if err := os.WriteFile(stmp, stacks, 0o644); err != nil {
			return path, err
		}
		if err := os.Rename(stmp, sp); err != nil {
			return path, err
		}
	}
	return path, nil
}

// ReadDump loads one dump file.
func ReadDump(path string) (Dump, error) {
	var d Dump
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("trace: dump %s: %w", path, err)
	}
	return d, nil
}

// BundleEntry is one dump's line in the bundle manifest.
type BundleEntry struct {
	Rank        int    `json:"rank"`
	Epoch       int    `json:"epoch"`
	Reason      string `json:"reason"`
	File        string `json:"file"` // path relative to the bundle dir
	Events      int    `json:"events"`
	RingTotal   uint64 `json:"ring_total"`
	RingDropped uint64 `json:"ring_dropped"`
	// LastCompletedStep is the highest superstep whose barrier the
	// rank completed before dumping, -1 if none — the first fact a
	// root-cause analysis wants per rank.
	LastCompletedStep int `json:"last_completed_step"`
}

// BundleManifest indexes a postmortem bundle: every dump found under
// the bundle dir, plus the job identity they share.
type BundleManifest struct {
	Job   string        `json:"job"`
	P     int           `json:"p"`
	Dumps []BundleEntry `json:"dumps"`
}

// ManifestName is the bundle index filename GatherBundle writes.
const ManifestName = "MANIFEST.json"

// scanBundle walks dir for rank*/dump-*.json and loads every dump it
// can read, sorted by (rank, epoch); files[i] is dumps[i]'s path
// relative to the bundle dir. The error names every dump it could not.
func scanBundle(dir string) ([]Dump, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank*", "dump-*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	type loaded struct {
		d    Dump
		file string
	}
	var all []loaded
	var unreadable []error
	for _, p := range paths {
		d, err := ReadDump(p)
		if err != nil {
			unreadable = append(unreadable, err)
			continue
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			rel = p
		}
		all = append(all, loaded{d, rel})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].d.Rank != all[j].d.Rank {
			return all[i].d.Rank < all[j].d.Rank
		}
		return all[i].d.Epoch < all[j].d.Epoch
	})
	dumps := make([]Dump, len(all))
	files := make([]string, len(all))
	for i, l := range all {
		dumps[i] = l.d
		files[i] = l.file
	}
	return dumps, files, errors.Join(unreadable...)
}

// GatherBundle scans dir for per-rank dumps and writes MANIFEST.json
// indexing them (atomically, like the dumps). With no dumps it writes
// nothing and returns an empty manifest — a clean run leaves no
// bundle. The launcher calls this after a cluster job ends; the dump
// files themselves were written by the (possibly dead) rank processes.
func GatherBundle(dir string) (*BundleManifest, error) {
	dumps, files, err := scanBundle(dir)
	if err != nil {
		return nil, err
	}
	man := &BundleManifest{}
	if len(dumps) == 0 {
		return man, nil
	}
	man.Job, man.P = dumps[0].Job, dumps[0].P
	for i, d := range dumps {
		man.Dumps = append(man.Dumps, BundleEntry{
			Rank:              d.Rank,
			Epoch:             d.Epoch,
			Reason:            d.Reason,
			File:              files[i],
			Events:            len(d.Events),
			RingTotal:         d.RingTotal,
			RingDropped:       d.RingDropped,
			LastCompletedStep: d.LastCompletedStep(),
		})
	}
	b, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, ManifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return man, nil
}
