package trace

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fillRank records one superstep's worth of events for one rank.
func fillRank(r *Recorder, rank, step int, base int64) {
	b := r.Rank(rank)
	b.Compute(step, base, base+10, 5)
	b.SyncSpan(step, base+10, base+20, 3, 3, 0)
	b.Pair(step, (rank+1)%r.P(), base+12, 64, 2, 3)
}

func TestShardRoundTrip(t *testing.T) {
	r := New(2)
	fillRank(r, 1, 0, 100)
	r.Rollback(2, 3)

	s := r.Shard("job-x", 1)
	if s.Job != "job-x" || s.Rank != 1 || s.P != 2 {
		t.Errorf("shard identity: %+v", s)
	}
	if s.EpochUnixNano != r.EpochWall().UnixNano() {
		t.Errorf("shard epoch %d != recorder epoch %d", s.EpochUnixNano, r.EpochWall().UnixNano())
	}
	if len(s.Events) != 4 {
		t.Fatalf("shard has %d events, want 4", len(s.Events))
	}

	path := filepath.Join(t.TempDir(), "rank0001.json")
	if err := WriteShardFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != s.Job || got.Rank != s.Rank || got.P != s.P || got.EpochUnixNano != s.EpochUnixNano {
		t.Errorf("round trip header: %+v != %+v", got, s)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatalf("round trip has %d events, want %d", len(got.Events), len(s.Events))
	}
	for i := range got.Events {
		if got.Events[i] != s.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, got.Events[i], s.Events[i])
		}
	}
}

func TestReadShardFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteShardFile(path, Shard{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must fail")
	}
}

// TestMergeShards: two single-rank recorders with skewed wall-clock
// epochs merge onto the earliest epoch's axis, per-rank buffers land
// in the right tracks, and machine events survive.
func TestMergeShards(t *testing.T) {
	r0 := New(2)
	fillRank(r0, 0, 0, 100)
	r1 := New(2)
	fillRank(r1, 1, 0, 100)
	r1.Rollback(2, 1)

	s0 := r0.Shard("j", 0)
	s1 := r1.Shard("j", 1)
	// Pretend rank 1's process started 1ms later in wall time: its
	// events must shift forward by 1ms on the merged axis.
	const skew = int64(1_000_000)
	s1.EpochUnixNano = s0.EpochUnixNano + skew

	m, err := MergeShards([]Shard{s1, s0}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 2 {
		t.Fatalf("merged P = %d, want 2", m.P())
	}
	ev := m.Events()
	if len(ev) != len(s0.Events)+len(s1.Events) {
		t.Fatalf("merged %d events, want %d", len(ev), len(s0.Events)+len(s1.Events))
	}
	var sawRank1Compute, sawRollback bool
	for _, e := range ev {
		switch {
		case e.Rank == 1 && e.Kind == KindCompute:
			sawRank1Compute = true
			if e.Start != 100+skew {
				t.Errorf("rank 1 compute start %d, want %d (shifted by the epoch delta)", e.Start, 100+skew)
			}
		case e.Rank == 0 && e.Kind == KindCompute:
			if e.Start != 100 {
				t.Errorf("rank 0 compute start %d, want 100 (base axis)", e.Start)
			}
		case e.Rank == MachineRank && e.Kind == KindRollback:
			sawRollback = true
		}
	}
	if !sawRank1Compute || !sawRollback {
		t.Errorf("merged trace lost events: rank1Compute=%v rollback=%v", sawRank1Compute, sawRollback)
	}
}

// TestMergeShardsOneRollbackPerRecovery: each survivor of a recovered
// run records the recovery's rollback in its own shard; the merged
// machine track carries it once, at the earliest instant, and keeps a
// later recovery (another attempt) as a marker of its own.
func TestMergeShardsOneRollbackPerRecovery(t *testing.T) {
	rollback := func(at, attempt, resume int64) Event {
		return Event{Kind: KindRollback, Rank: MachineRank, Step: int32(resume), Start: at, End: at, A: attempt, B: resume}
	}
	var shards []Shard
	for rank := 0; rank < 3; rank++ {
		s := Shard{Job: "j", Rank: rank, P: 3, EpochUnixNano: 1000,
			Events: []Event{rollback(int64(500-100*rank), 1, 2)}} // rank 2's is the earliest
		if rank == 0 {
			s.Events = append(s.Events, rollback(900, 2, 4))
		}
		shards = append(shards, s)
	}
	m, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range m.Events() {
		if e.Kind == KindRollback {
			got = append(got, fmt.Sprintf("attempt %d to %d at %d", e.A, e.B, e.Start))
		}
	}
	if want := "[attempt 1 to 2 at 300 attempt 2 to 4 at 900]"; fmt.Sprint(got) != want {
		t.Fatalf("merged rollbacks %v, want %s", got, want)
	}
}

func TestMergeShardsValidates(t *testing.T) {
	r := New(2)
	fillRank(r, 0, 0, 10)
	base := r.Shard("j", 0)

	if _, err := MergeShards(nil); err == nil {
		t.Error("empty shard list must fail")
	}
	other := base
	other.Job = "different"
	if _, err := MergeShards([]Shard{base, other}); err == nil {
		t.Error("mismatched job ids must fail")
	}
	narrow := base
	narrow.P = 3
	if _, err := MergeShards([]Shard{base, narrow}); err == nil {
		t.Error("mismatched machine widths must fail")
	}
	rogue := base
	rogue.Events = []Event{{Kind: KindCompute, Rank: 7, Start: 1, End: 2}}
	if _, err := MergeShards([]Shard{base, rogue}); err == nil {
		t.Error("out-of-range rank must fail")
	}
}

// TestMergeShardsChromeExport pins that a merged recorder feeds the
// Chrome exporter exactly like a live one.
func TestMergeShardsChromeExport(t *testing.T) {
	r0 := New(2)
	fillRank(r0, 0, 0, 100)
	r1 := New(2)
	fillRank(r1, 1, 0, 100)
	m, err := MergeShards([]Shard{r0.Shard("j", 0), r1.Shard("j", 1)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merged.json")
	if err := m.WriteChromeFile(path); err != nil {
		t.Fatalf("merged recorder must export Chrome JSON: %v", err)
	}
}

// TestMergeShardDir: the launcher-side merge reads every shard file a
// gang left in a directory, and an empty directory says why that
// usually happens.
func TestMergeShardDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := MergeShardDir(dir); err == nil || !strings.Contains(err.Error(), "no trace shards in "+dir+" (did every rank die before its first superstep?)") {
		t.Errorf("empty shard dir: %v", err)
	}
	for rank := 0; rank < 2; rank++ {
		r := New(2)
		fillRank(r, rank, 0, 100)
		if err := WriteShardFile(filepath.Join(dir, fmt.Sprintf("rank%04d-e000.json", rank)), r.Shard("j", rank)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := MergeShardDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 2 || len(m.Events()) != 6 {
		t.Errorf("merged %d events over p=%d, want 6 over p=2", len(m.Events()), m.P())
	}
}
