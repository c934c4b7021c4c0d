package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/transport"
)

// keptState is rank's kept slice at boundary step of TestKeepCuts:
// shrinking from cut to cut, so a slice rewritten in place overwrites
// the values the previous cut streamed.
func keptState(rank, step int) []float64 {
	v := make([]float64, 10*(4-step))
	for i := range v {
		v[i] = float64(100*rank+step) + float64(i)/64
	}
	return v
}

// restored decodes a record's user section into the step and slice a
// rank kept as (&step, &vals).
func restored(t *testing.T, s *ckpt.Snapshot) (step int, vals []float64) {
	t.Helper()
	if err := restoreKept(s.User, []any{&step, &vals}); err != nil {
		t.Fatalf("rank %d step %d: %v", s.Rank, s.Step, err)
	}
	return step, vals
}

// decodeRecords decodes every record in dir.
func decodeRecords(t *testing.T, dir string) []*ckpt.Snapshot {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*ckpt.Snapshot
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ckpt.DecodeSnapshot(b)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		recs = append(recs, s)
	}
	return recs
}

// TestKeepCuts pins the Keep contract over three boundaries on shm,
// p = 4: a boundary at which a rank keeps nothing writes no record, and
// every cut's file holds the kept state as of that cut's Sync — whether
// the kept slice is rewritten in place or replaced by a fresh one, so
// streaming from the app's memory never rewrote a record already
// written.
func TestKeepCuts(t *testing.T) {
	const p, cuts = 4, 3
	rows := []struct {
		name string
		// update sets vals to rank's state at step, or returns false to
		// keep nothing at that boundary.
		update func(vals *[]float64, rank, step int) bool
	}{
		{"in place", func(vals *[]float64, rank, step int) bool {
			*vals = append((*vals)[:0], keptState(rank, step)...)
			return true
		}},
		{"fresh", func(vals *[]float64, rank, step int) bool {
			*vals = keptState(rank, step)
			return true
		}},
		{"skip 2", func(vals *[]float64, rank, step int) bool {
			*vals = append((*vals)[:0], keptState(rank, step)...)
			return step != 2
		}},
		{"none", func(*[]float64, int, int) bool { return false }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			kept := map[int]bool{} // boundaries rank 0 kept state at
			dir := t.TempDir()
			cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
			st, err := Run(cfg, func(c *Proc) {
				var step int
				var vals []float64
				for s := 0; s < cuts; s++ {
					step = s + 1
					if row.update(&vals, c.ID(), step) {
						c.Keep(&step, &vals)
						if c.ID() == 0 {
							kept[step] = true
						}
					} else {
						c.Keep()
					}
					c.Send((c.ID()+1)%p, []byte{byte(s)}) // a non-empty inbox at every cut
					c.Sync()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			recs := decodeRecords(t, dir)
			if len(recs) != p*len(kept) || st.Ckpt.Snapshots != len(recs) || st.Ckpt.Cuts != len(kept) {
				t.Fatalf("%d snapshot files, stats %+v; want %d (%d cuts on %d ranks)", len(recs), st.Ckpt, p*len(kept), len(kept), p)
			}
			for _, s := range recs {
				step, vals := restored(t, s)
				if !kept[s.Step] || step != s.Step || !slices.Equal(vals, keptState(s.Rank, s.Step)) {
					t.Errorf("rank %d step %d holds step %d and %d values, not that cut's state", s.Rank, s.Step, step, len(vals))
				}
				if want := []byte{byte(s.Step - 1)}; s.BatchLen() != 5 || !bytes.Equal(s.Batches[0][4:], want) {
					t.Errorf("rank %d step %d: inbox %x, want one frame carrying %x", s.Rank, s.Step, s.Batches, want)
				}
			}
		})
	}
}

// TestKeepRestore resumes a run from the cuts an earlier one left: the
// first Keep fills a slice of the saved length in place and gives any
// other a new array, and a resumed rank whose Keep does not match the
// cut, or that syncs or returns before Keep, fails the run with an
// error naming the superstep.
func TestKeepRestore(t *testing.T) {
	const p = 2
	dir := t.TempDir()
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	if _, err := Run(cfg, func(c *Proc) {
		n, vals := 7, []float64{float64(c.ID()), 2, 3}
		c.Keep(&n, &vals)
		c.Sync()
		c.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint.Resume = true
	for _, length := range []int{3, 0, 5} {
		got := make([][]float64, p)
		inPlace := make([]bool, p)
		st, err := Run(cfg, func(c *Proc) {
			var n int
			vals := make([]float64, length)
			array := vals[:cap(vals)]
			c.Keep(&n, &vals)
			if c.Step() != 2 || n != 7 {
				panic("restored the wrong cut")
			}
			got[c.ID()] = vals
			inPlace[c.ID()] = len(array) > 0 && &array[0] == &vals[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range got {
			if !slices.Equal(got[r], []float64{float64(r), 2, 3}) || inPlace[r] != (length == 3) {
				t.Fatalf("length %d, rank %d: restored %v (in place %v)", length, r, got[r], inPlace[r])
			}
		}
		if st.Ckpt.ResumeStep != 2 {
			t.Fatalf("resumed at %d, want 2", st.Ckpt.ResumeStep)
		}
	}
	for name, fn := range map[string]func(c *Proc){
		"fewer regions": func(c *Proc) { var n int; c.Keep(&n) },
		"other kind":    func(c *Proc) { var n, m int; c.Keep(&n, &m) },
		"sync first":    func(c *Proc) { c.Sync() },
		"no keep":       func(c *Proc) {},
	} {
		if _, err := Run(cfg, fn); err == nil || !strings.Contains(err.Error(), "superstep 2") {
			t.Errorf("%s: err = %v, want a failure naming superstep 2", name, err)
		}
	}
}

// runTokenCuts runs a p = 4 shm machine for cuts supersteps with a
// capture at every boundary, each rank keeping 8 values that update
// rewrites in place before every Sync, and returns its stats and every
// record it left, decoded.
func runTokenCuts(t *testing.T, dir string, cuts int, update func(vals []float64, rank, step int)) (*Stats, []*ckpt.Snapshot) {
	t.Helper()
	const p = 4
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	st, err := Run(cfg, func(c *Proc) {
		vals := make([]float64, 8)
		c.Keep(&vals)
		for s := 0; s < cuts; s++ {
			update(vals, c.ID(), s+1)
			c.Send((c.ID()+1)%p, []byte{byte(s)})
			c.Sync()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, decodeRecords(t, dir)
}

// TestCaptureReferences: a state that changes at every boundary never
// yields a reference record; an unchanged one is written in full once
// per rank and referenced at every later cut, and the newest cut loads
// back with the full state.
func TestCaptureReferences(t *testing.T) {
	const cuts = 4
	constant := func(vals []float64, rank, _ int) {
		for i := range vals {
			vals[i] = float64(rank)
		}
	}
	t.Run("changing", func(t *testing.T) {
		st, recs := runTokenCuts(t, t.TempDir(), cuts, func(vals []float64, rank, step int) {
			constant(vals, rank, step)
			vals[step%len(vals)] = -1
		})
		for _, s := range recs {
			if s.Base != 0 {
				t.Fatalf("rank %d step %d: a changed state was written as a reference to step %d", s.Rank, s.Step, s.Base)
			}
		}
		if len(recs) != 4*cuts || st.Ckpt.Cuts != cuts || st.Ckpt.Err != nil {
			t.Fatalf("%d records, stats %+v; want %d records and %d cuts", len(recs), st.Ckpt, 4*cuts, cuts)
		}
	})
	t.Run("unchanged", func(t *testing.T) {
		dir := t.TempDir()
		st, recs := runTokenCuts(t, dir, cuts, constant)
		for _, s := range recs {
			if want := min(s.Step-1, 1); s.Base != want {
				t.Fatalf("rank %d step %d: base %d, want %d", s.Rank, s.Step, s.Base, want)
			}
		}
		// One user section per rank: the 16-byte region table and 8 values.
		if st.Ckpt.Cuts != cuts || st.Ckpt.Bytes != 4*(16+64+cuts*5) {
			t.Fatalf("stats %+v: want %d cuts and one user section per rank in Bytes", st.Ckpt, cuts)
		}
		step, snaps, ok := (&ckpt.Store{Dir: dir}).LoadComplete(4)
		if !ok || step != cuts {
			t.Fatalf("LoadComplete = (%d, ok=%v), want (%d, true)", step, ok, cuts)
		}
		for r, s := range snaps {
			var vals []float64
			want := make([]float64, 8)
			constant(want, r, 0)
			if err := restoreKept(s.User, []any{&vals}); err != nil || !slices.Equal(vals, want) {
				t.Fatalf("rank %d: loaded %v (%v), not its state", r, vals, err)
			}
		}
	})
}

// TestCaptureErrorSurfaced: with Dir naming a regular file no record
// can be written. The run still succeeds — a lost checkpoint costs
// recovery depth, not correctness — but reports no cut and the error.
func TestCaptureErrorSurfaced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o666); err != nil {
		t.Fatal(err)
	}
	const p = 4
	sums := make([]int, p)
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	st, err := Run(cfg, func(c *Proc) {
		tok := 1
		c.Keep(&tok)
		for s := 0; s < 3; s++ {
			c.Send((c.ID()+1)%p, []byte{byte(c.ID() + s)})
			c.Sync()
			msg, _ := c.Recv()
			sums[c.ID()] += int(msg[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range sums {
		if want := 3*((r+p-1)%p) + 3; got != want {
			t.Fatalf("rank %d received %d, want %d", r, got, want)
		}
	}
	if st.Ckpt.Cuts != 0 || st.Ckpt.Snapshots != 0 || st.Ckpt.Err == nil {
		t.Fatalf("stats %+v: want no cut, no snapshot and the write error", st.Ckpt)
	}
}

// TestCaptureBaseLost: when a full record fails to publish, the next
// capture writes a full record again instead of references to the lost
// one, so later cuts of an unchanged state still complete. A directory
// squats on rank 0's first record name, so its rename fails; rank 0
// waits for the flusher to report that before its next Sync.
func TestCaptureBaseLost(t *testing.T) {
	const p, steps = 2, 6
	dir := t.TempDir()
	squat := filepath.Join(dir, "snap-000000000001-r0000.ckpt")
	if err := os.Mkdir(squat, 0o777); err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	st, err := Run(cfg, func(c *Proc) {
		tok := 1
		c.Keep(&tok)
		for s := 1; s <= steps; s++ {
			c.Sync()
			for deadline := time.Now().Add(10 * time.Second); s == 1 && c.ID() == 0 && captureErr(c.ck) == nil; {
				if time.Now().After(deadline) {
					panic("the failed publish of step 1 was never reported")
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ckpt.Err == nil || !strings.Contains(st.Ckpt.Err.Error(), squat) {
		t.Fatalf("CkptStats.Err = %v, want the failed rename onto %s", st.Ckpt.Err, squat)
	}
	step, _, ok := (&ckpt.Store{Dir: dir}).LoadComplete(p)
	if !ok || step <= 1 || st.Ckpt.Cuts < 1 {
		t.Fatalf("LoadComplete = (%d, ok=%v), stats %+v: want a complete cut after step 1", step, ok, st.Ckpt)
	}
}

// captureErr reads k's first failure.
func captureErr(k *capturer) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats.Err
}

// TestFlushOneBatchInFlight pins the flusher's contract on a p = 8,
// Every: 1 run whose kept state changes at every third boundary, so the
// records mix full ones with references to them. Watched through the
// publish seam: at most one batch is being published at a time, each
// rank's records reach their names in cut order, a reference is renamed
// only after its base's directory fsync has returned, and every staged
// record is counted exactly once.
func TestFlushOneBatchInFlight(t *testing.T) {
	const p, steps = 8, 12
	var (
		mu       sync.Mutex
		inFlight int
		bad      []string
		last     = make([]int, p)        // each rank's last step handed to publish
		durable  = make(map[[2]int]bool) // (rank, step) whose batch has returned
		full     int
		refs     int
	)
	orig := publish
	defer func() { publish = orig }()
	publish = func(recs []*ckpt.Staged, errs []error) {
		mu.Lock()
		if inFlight++; inFlight > 1 {
			bad = append(bad, fmt.Sprintf("%d batches published at once", inFlight))
		}
		for _, r := range recs {
			if r.Step != last[r.Rank]+1 {
				bad = append(bad, fmt.Sprintf("rank %d published step %d after step %d", r.Rank, r.Step, last[r.Rank]))
			}
			last[r.Rank] = r.Step
			if r.Base > 0 && !durable[[2]int{r.Rank, r.Base}] {
				bad = append(bad, fmt.Sprintf("rank %d step %d renamed before its base %d was durable", r.Rank, r.Step, r.Base))
			}
		}
		mu.Unlock()
		// Widen the window in which a second publish would overlap.
		time.Sleep(time.Millisecond)
		orig(recs, errs)
		mu.Lock()
		defer mu.Unlock()
		inFlight--
		for i, r := range recs {
			if errs[i] != nil {
				bad = append(bad, errs[i].Error())
				continue
			}
			durable[[2]int{r.Rank, r.Step}] = true
			if r.Base > 0 {
				refs++
			} else {
				full++
			}
		}
	}
	dir := t.TempDir()
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	st, err := Run(cfg, func(c *Proc) {
		var tok int
		c.Keep(&tok)
		for s := 1; s <= steps; s++ {
			tok = s / 3
			c.Sync()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	recs := decodeRecords(t, dir)
	if refs == 0 || full+refs != p*steps || len(recs) != p*steps {
		t.Fatalf("published %d full records and %d references, %d on disk; want %d in all, some of them references", full, refs, len(recs), p*steps)
	}
	// A full record's user section is the 16-byte region table and one int.
	if st.Ckpt.Snapshots != p*steps || st.Ckpt.Cuts != steps || st.Ckpt.Bytes != int64(24*full) || st.Ckpt.Err != nil {
		t.Fatalf("stats %+v: want %d snapshots, %d cuts and %d bytes", st.Ckpt, p*steps, steps, 24*full)
	}
}
