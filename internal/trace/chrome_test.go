package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder builds a 2-rank recorder with explicit timestamps
// replaying a crashed-and-recovered run in miniature: superstep 0
// completes on both ranks, rank 1 crashes ending superstep 1, the
// machine rolls back to the boundary-1 checkpoint, and superstep 1 is
// re-executed cleanly. Every timestamp is synthetic nanoseconds, so
// the exported JSON is byte-stable.
func goldenRecorder() *Recorder {
	r := New(2)
	b0, b1 := r.Rank(0), r.Rank(1)

	// Attempt 1, superstep 0: both ranks compute, exchange one batch
	// each, checkpoint the boundary.
	b0.Pair(0, 1, 900, 64, 4, 4)
	b0.Compute(0, 0, 1000, 5)
	b0.SyncSpan(0, 1000, 2000, 4, 3, 0)
	b0.CkptSave(1, 2000, 2100, 96)
	b1.Pair(0, 0, 950, 48, 3, 3)
	b1.Compute(0, 100, 1100, 6)
	b1.SyncSpan(0, 1100, 2000, 3, 4, 0)
	b1.CkptSave(1, 2000, 2120, 80)

	// Attempt 1, superstep 1: rank 0 reaches the barrier (its batch is
	// already handed over); rank 1 crashes in its Sync, so neither rank
	// records a sync span for step 1 in this attempt. The control plane
	// had been beating (rank 0 sent three heartbeats, missed one reply
	// window); the coordinator convicts the silent rank 1 and rank 0
	// sees the suspicion surface in its failed Sync, after which the
	// launcher warm-relaunches only rank 1.
	b0.Pair(1, 1, 3000, 32, 2, 2)
	b1.Fault(1, FaultCrash, 3100, 0)
	b0.Heartbeat(1, 0)
	b0.Heartbeat(2, 0)
	b0.Heartbeat(3, 0)
	b0.HeartbeatRTT(2, 1_500_000) // the coordinator echoed beat 2 in 1.5ms
	b0.HeartbeatMiss()
	b0.Fault(1, FaultSuspect, 3400, 1)
	b0.WarmRestart(1, 1)

	// Rollback to the boundary-1 snapshot; attempt 2 restores and
	// re-executes superstep 1.
	r.emitMachine(Event{Kind: KindRollback, Rank: MachineRank, Step: 1, Start: 3500, End: 3500, A: 2, B: 1})
	b0.CkptRestore(1, 4000, 4050)
	b1.CkptRestore(1, 4000, 4060)
	b0.Pair(1, 1, 4900, 32, 2, 2)
	b0.Compute(1, 4100, 5000, 7)
	b0.Exchange(1, 5000, 5200)
	b0.SyncSpan(1, 5000, 6000, 2, 1, 0)
	b1.Compute(1, 4100, 5100, 8)
	b1.SyncSpan(1, 5100, 6000, 1, 2, 1)
	return r
}

// TestWriteChromeGolden pins the Chrome trace-event JSON the exporter
// emits for the recovered-run timeline: superstep umbrella spans with
// nested compute and sync slices per rank, batch handoffs and the
// crash as instant events, checkpoint save/restore spans, and the
// rollback marker on the machine track. Regenerate with -update after
// a deliberate schema change.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export diverged from golden (run with -update after deliberate schema changes)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteChromeFile covers the file-writing path end to end.
func TestWriteChromeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := goldenRecorder().WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("WriteChromeFile and WriteChrome disagree")
	}
}

// TestWriteChromeNil: a nil recorder reports an error instead of
// writing an empty trace.
func TestWriteChromeNil(t *testing.T) {
	var r *Recorder
	if err := r.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("nil recorder exported without error")
	}
}
