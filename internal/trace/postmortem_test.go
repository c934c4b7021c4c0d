package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// postmortemRecorder builds a 2-rank flight recorder mid-crash: rank 0
// completed supersteps 0-2, rank 1 died in superstep 2 after
// completing 0-1, heartbeats were flowing.
func postmortemRecorder() *Recorder {
	r := NewFlight(2)
	b0, b1 := r.Rank(0), r.Rank(1)
	for s := 0; s < 3; s++ {
		base := int64(s * 1000)
		b0.Compute(s, base, base+500, 1)
		b0.SyncSpan(s, base+500, base+900, 1, 1, 0)
		if s < 2 {
			b1.Compute(s, base, base+600, 1)
			b1.SyncSpan(s, base+600, base+900, 1, 1, 0)
		}
	}
	b0.Heartbeat(4, 0)
	b1.Fault(2, FaultCrash, 2500, 0)
	return r
}

// TestTracePostmortemDumpRoundTrip: a dump is a faithful, sorted,
// reconciled snapshot of the ring, and survives the disk round trip.
func TestTracePostmortemDumpRoundTrip(t *testing.T) {
	r := postmortemRecorder()
	d := r.Postmortem("job-x", 1, 0, "rank 1 crashed")
	if d.Job != "job-x" || d.Rank != 1 || d.P != 2 || d.Epoch != 0 {
		t.Fatalf("dump identity wrong: %+v", d)
	}
	if d.RingTotal != 5 || d.RingDropped != 0 || len(d.Events) != 5 {
		t.Fatalf("ring accounting: total=%d dropped=%d events=%d, want 5/0/5", d.RingTotal, d.RingDropped, len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Start < d.Events[i-1].Start {
			t.Fatal("dump events not sorted by start time")
		}
	}
	if got := d.LastCompletedStep(); got != 1 {
		t.Fatalf("LastCompletedStep = %d, want 1 (rank 1 died in superstep 2)", got)
	}
	if r0 := d.Metrics.Ranks[0]; r0.Heartbeats != 1 || r0.LastHeartbeatSeq != 4 {
		t.Fatalf("heartbeat context missing from the beating rank's row: %+v", r0)
	}

	dir := t.TempDir()
	path, err := WriteDump(dir, d, []byte("goroutine 1 [running]:\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "rank1", "dump-e0.json"); path != want {
		t.Fatalf("dump path %s, want %s", path, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "rank1", "stacks-e0.txt")); err != nil {
		t.Fatalf("stacks file missing: %v", err)
	}
	back, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != "rank 1 crashed" || len(back.Events) != 5 || back.Events[4].Kind != KindFault {
		t.Fatalf("round trip mangled the dump: %+v", back)
	}
}

// TestTracePostmortemBundle: gathering writes a manifest that indexes
// every dump, a bundle reads back and passes CheckBundle, without the
// manifest it still reads back (with the gap named), and the dumps
// merge onto one timeline via the shard machinery.
func TestTracePostmortemBundle(t *testing.T) {
	r := postmortemRecorder()
	dir := t.TempDir()
	for rank := 0; rank < 2; rank++ {
		d := r.Postmortem("job-x", rank, 0, "rank 1 crashed")
		if _, err := WriteDump(dir, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	man, err := GatherBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Job != "job-x" || man.P != 2 || len(man.Dumps) != 2 {
		t.Fatalf("manifest wrong: %+v", man)
	}
	if man.Dumps[0].LastCompletedStep != 2 || man.Dumps[1].LastCompletedStep != 1 {
		t.Fatalf("last completed steps = (%d, %d), want (2, 1)",
			man.Dumps[0].LastCompletedStep, man.Dumps[1].LastCompletedStep)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}

	dumps, err := CheckBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("bundle read back %d dumps, want 2", len(dumps))
	}
	shards := make([]Shard, len(dumps))
	for i, d := range dumps {
		shards[i] = d.Shard
	}
	merged, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	var crashes int
	for _, e := range merged.Events() {
		if e.Kind == KindFault && FaultCode(e.A) == FaultCrash {
			crashes++
			if e.Rank != 1 || e.Step != 2 {
				t.Fatalf("crash event merged to rank %d step %d, want rank 1 step 2", e.Rank, e.Step)
			}
		}
	}
	if crashes != 1 {
		t.Fatalf("merged timeline has %d crash events, want 1", crashes)
	}

	// Without a manifest the bundle still reads (the launcher may have
	// died before gathering), and the missing manifest is named.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	if dumps, err = CheckBundle(dir); len(dumps) != 2 || err == nil || !strings.Contains(err.Error(), "never gathered") {
		t.Fatalf("manifest-less bundle: %d dumps, err %v", len(dumps), err)
	}
}

// TestTracePostmortemEmptyBundle: a clean run's directory yields an
// empty manifest from GatherBundle (nothing written), and CheckBundle
// reads no dumps from it and says so.
func TestTracePostmortemEmptyBundle(t *testing.T) {
	dir := t.TempDir()
	man, err := GatherBundle(dir)
	if err != nil || len(man.Dumps) != 0 {
		t.Fatalf("empty gather: %+v, err %v", man, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Fatal("empty gather must not write a manifest")
	}
	if dumps, err := CheckBundle(dir); len(dumps) != 0 || err == nil || !strings.Contains(err.Error(), "no postmortem dumps") {
		t.Fatalf("empty CheckBundle = %d dumps, error %v", len(dumps), err)
	}
}

// TestTracePostmortemTruncation: an overflowed ring reports the
// overwritten prefix through RingDropped — the truncation marker the
// validators require.
func TestTracePostmortemTruncation(t *testing.T) {
	r := NewFlight(1)
	b := r.Rank(0)
	n := DefaultRingSize + 50
	for s := 0; s < n; s++ {
		b.SyncSpan(s, int64(s*10), int64(s*10+5), 0, 0, 0)
	}
	d := r.Postmortem("job-x", 0, 0, "overflow")
	if d.RingTotal != uint64(n) {
		t.Fatalf("RingTotal = %d, want %d", d.RingTotal, n)
	}
	if d.RingDropped != uint64(n-DefaultRingSize) || len(d.Events) != DefaultRingSize {
		t.Fatalf("dropped=%d events=%d, want %d/%d", d.RingDropped, len(d.Events), n-DefaultRingSize, DefaultRingSize)
	}
	if got := d.LastCompletedStep(); got != n-1 {
		t.Fatalf("LastCompletedStep = %d, want %d (the suffix survives)", got, n-1)
	}
}
