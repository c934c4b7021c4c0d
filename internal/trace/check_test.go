package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanRecorder is a fault-free 2-rank run of two supersteps whose
// batch handoffs reconcile with the sync counters: rank 1 also
// delivers one packet to itself in superstep 1.
func cleanRecorder() *Recorder {
	r := New(2)
	b0, b1 := r.Rank(0), r.Rank(1)
	b0.Pair(0, 1, 900, 64, 4, 4)
	b0.Compute(0, 0, 1000, 5)
	b0.SyncSpan(0, 1000, 2000, 4, 3, 0)
	b1.Pair(0, 0, 950, 48, 3, 3)
	b1.Compute(0, 100, 1100, 6)
	b1.SyncSpan(0, 1100, 2000, 3, 4, 0)
	b0.Pair(1, 1, 2900, 32, 2, 2)
	b0.Compute(1, 2000, 3000, 7)
	b0.SyncSpan(1, 3000, 4000, 2, 1, 0)
	b1.Pair(1, 0, 2950, 16, 1, 1)
	b1.Compute(1, 2000, 3100, 8)
	b1.SyncSpan(1, 3100, 4000, 2, 3, 1)
	return r
}

// chromeDoc renders rec through WriteChrome and applies mutate to the
// decoded events before re-encoding them.
func chromeDoc(t *testing.T, rec *Recorder, mutate func([]chromeEvent) []chromeEvent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc.TraceEvents = mutate(doc.TraceEvents)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// without drops the events keep rejects.
func without(drop func(chromeEvent) bool) func([]chromeEvent) []chromeEvent {
	return func(evs []chromeEvent) []chromeEvent {
		kept := evs[:0]
		for _, e := range evs {
			if !drop(e) {
				kept = append(kept, e)
			}
		}
		return kept
	}
}

func unchanged(evs []chromeEvent) []chromeEvent { return evs }

// TestCheckTrace: the exporter's own output passes every audit it
// qualifies for, and each single mutation is caught with its own
// message.
func TestCheckTrace(t *testing.T) {
	recovered := CheckOptions{Ranks: 2, RequireCrash: true, RequireRollback: true}
	pairs := CheckOptions{Ranks: 2, CheckPairs: true}

	sum, err := Check(bytes.NewReader(chromeDoc(t, goldenRecorder(), unchanged)), recovered)
	if err != nil {
		t.Fatalf("recovered trace rejected: %v", err)
	}
	if sum.Steps != 2 || sum.Crashes != 1 || sum.Rollbacks != 1 || sum.PairsChecked != 0 {
		t.Errorf("recovered trace summary %+v, want 2 steps, 1 crash, 1 rollback", sum)
	}
	sum, err = Check(bytes.NewReader(chromeDoc(t, cleanRecorder(), unchanged)), pairs)
	if err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
	if sum.PairsChecked != 4 || sum.LastSync[0] != 1 || sum.LastSync[1] != 1 {
		t.Errorf("clean trace summary %+v, want 4 reconciliations and last sync 1 on both ranks", sum)
	}
	// With a rollback the pair audit is skipped, not failed.
	if sum, err := Check(bytes.NewReader(chromeDoc(t, goldenRecorder(), unchanged)), pairs); err != nil || sum.PairsChecked != 0 {
		t.Errorf("pair audit of a recovered trace: %d reconciliations, %v; want skipped", sum.PairsChecked, err)
	}

	for _, tc := range []struct {
		name   string
		rec    *Recorder
		mutate func([]chromeEvent) []chromeEvent
		opts   CheckOptions
		want   string
	}{
		{"superstep span removed", cleanRecorder(), without(func(e chromeEvent) bool {
			return e.Tid == 1 && e.Name == "superstep 0"
		}), pairs, "rank 1 has no superstep 0 span"},
		{"crash marker removed", goldenRecorder(), without(func(e chromeEvent) bool {
			return e.Name == "chaos crash"
		}), recovered, "no chaos crash marker"},
		{"rollback marker removed", goldenRecorder(), without(func(e chromeEvent) bool {
			return strings.HasPrefix(e.Name, "rollback to superstep")
		}), recovered, "no rollback marker"},
		{"pair pkts off by one", cleanRecorder(), func(evs []chromeEvent) []chromeEvent {
			for _, e := range evs {
				if e.Tid == 0 && e.Name == "batch to 1" && e.Args["step"] == float64(1) {
					e.Args["pkts"] = e.Args["pkts"].(float64) + 1
				}
			}
			return evs
		}, pairs, "rank 0 superstep 1: batch handoffs carry 3 sent packet units, sync span counted 2"},
	} {
		_, err := Check(bytes.NewReader(chromeDoc(t, tc.rec, tc.mutate)), tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := Check(strings.NewReader("{"), recovered); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// bundleDir writes a gathered 2-rank postmortem bundle of
// postmortemRecorder's crash, with edit applied to each dump before it
// is written.
func bundleDir(t *testing.T, edit func(*Dump)) string {
	t.Helper()
	dir := t.TempDir()
	r := postmortemRecorder()
	for rank, reason := range []string{"rank 1 convicted", "chaos crash"} {
		d := r.Postmortem("job-x", rank, 0, reason)
		edit(&d)
		if _, err := WriteDump(dir, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := GatherBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCheckBundle: a gathered bundle passes; a job short of a rank's
// dump, a dump of a rank outside the job, a manifest that lost an
// entry, a dump in another rank's directory and a ring whose
// accounting is off by one are each caught.
func TestCheckBundle(t *testing.T) {
	dumps, err := CheckBundle(bundleDir(t, func(*Dump) {}))
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if len(dumps) != 2 || dumps[0].Rank != 0 || dumps[1].Rank != 1 {
		t.Fatalf("CheckBundle returned %d dumps, want ranks 0 and 1", len(dumps))
	}
	// A p=3 job that left two dumps.
	if _, err := CheckBundle(bundleDir(t, func(d *Dump) { d.P = 3 })); err == nil || !strings.Contains(err.Error(), "rank 2 left no dump") {
		t.Errorf("bundle short of a rank: %v", err)
	}
	// A p=1 job whose second dump claims rank 1.
	if _, err := CheckBundle(bundleDir(t, func(d *Dump) { d.P = 1 })); err == nil || !strings.Contains(err.Error(), "dump claims rank 1 outside p=1") {
		t.Errorf("dump of a rank outside the job: %v", err)
	}

	// A manifest entry dropped.
	dir := bundleDir(t, func(*Dump) {})
	man, err := GatherBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Dumps = man.Dumps[:1]
	b, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckBundle(dir); err == nil || !strings.Contains(err.Error(), "on disk but not in the manifest") {
		t.Errorf("manifest missing an entry: %v", err)
	}

	// Rank 1's dump moved into rank 3's directory.
	dir = bundleDir(t, func(*Dump) {})
	if err := os.Rename(filepath.Join(dir, "rank1"), filepath.Join(dir, "rank3")); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckBundle(dir); err == nil || !strings.Contains(err.Error(), "dump claims rank 1 but lives in rank3/") {
		t.Errorf("dump in another rank's directory: %v", err)
	}

	// Ring accounting off by one.
	dir = bundleDir(t, func(d *Dump) { d.RingTotal++ })
	if _, err := CheckBundle(dir); err == nil || !strings.Contains(err.Error(), "ring accounting broken") {
		t.Errorf("ring accounting off by one: %v", err)
	}
}
