package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/transport"
)

// saveState is rank's user state at boundary step of TestSaveBufferReuse:
// shrinking from cut to cut, so an appending hook rewrites the bytes of
// the previous cut's state in place.
func saveState(rank, step int) []byte {
	return bytes.Repeat([]byte{byte(16*rank + step)}, 100*(4-step))
}

// TestSaveBufferReuse pins the Hooks.Save contract over three cuts on
// shm, p = 4: each rank is handed back, emptied, the slice its Save
// returned at its previous accepted capture — whether that slice was
// appended to buf or freshly made, and skipping a declined boundary —
// and every cut's file still holds that cut's state, so reusing the
// buffer never rewrote a record already written.
func TestSaveBufferReuse(t *testing.T) {
	const p, cuts = 4, 3
	hooks := []struct {
		name string
		save func(c *Proc, buf []byte) ([]byte, bool)
	}{
		{"append", func(c *Proc, buf []byte) ([]byte, bool) {
			return append(buf, saveState(c.ID(), c.Step())...), true
		}},
		{"fresh", func(c *Proc, buf []byte) ([]byte, bool) {
			return saveState(c.ID(), c.Step()), true
		}},
		{"decline 2", func(c *Proc, buf []byte) ([]byte, bool) {
			if c.Step() == 2 {
				return nil, false
			}
			return append(buf, saveState(c.ID(), c.Step())...), true
		}},
		{"decline all", func(c *Proc, buf []byte) ([]byte, bool) {
			return nil, false
		}},
	}
	for _, h := range hooks {
		save := h.save
		t.Run(h.name, func(t *testing.T) {
			// passed[r][k] / returned[r][k]: rank r's k-th Save call. Each
			// rank's row is written only by its own goroutine.
			var passed, returned [p][][]byte
			accepted := map[int]bool{}
			dir := t.TempDir()
			cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
			st, err := RunRecoverable(cfg, func(c *Proc) {
				for s := 0; s < cuts; s++ {
					c.Send((c.ID()+1)%p, []byte{byte(s)}) // a non-empty inbox at every cut
					c.Sync()
				}
			}, Hooks{Save: func(c *Proc, buf []byte) ([]byte, bool) {
				state, ok := save(c, buf)
				passed[c.ID()] = append(passed[c.ID()], buf)
				if ok {
					returned[c.ID()] = append(returned[c.ID()], state)
				} else {
					returned[c.ID()] = append(returned[c.ID()], nil)
				}
				return state, ok
			}})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if len(passed[r]) != cuts {
					t.Fatalf("rank %d: Save called %d times, want %d", r, len(passed[r]), cuts)
				}
				var last []byte // what the rank's Save last returned on accepting
				for k, buf := range passed[r] {
					if len(buf) != 0 || cap(buf) != cap(last) {
						t.Errorf("rank %d cut %d: Save got len %d cap %d, want len 0 cap %d (the previous accepted state's)",
							r, k+1, len(buf), cap(buf), cap(last))
					}
					if returned[r][k] != nil {
						last = returned[r][k]
						accepted[k+1] = true
					}
				}
			}
			files, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != p*len(accepted) || st.Ckpt.Snapshots != len(files) {
				t.Fatalf("%d snapshot files, %d counted, want %d (%d accepted cuts on %d ranks)",
					len(files), st.Ckpt.Snapshots, p*len(accepted), len(accepted), p)
			}
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				s, err := ckpt.DecodeSnapshot(b)
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				if !accepted[s.Step] || !bytes.Equal(s.User, saveState(s.Rank, s.Step)) {
					t.Errorf("%s: rank %d step %d holds %d state bytes, not that cut's state", f, s.Rank, s.Step, len(s.User))
				}
				if want := []byte{byte(s.Step - 1)}; s.BatchLen() != 5 || !bytes.Equal(s.Batches[0][4:], want) {
					t.Errorf("%s: inbox %x, want one frame carrying %x", f, s.Batches, want)
				}
			}
		})
	}
}

// runTokenCuts runs a p = 4 shm machine for cuts supersteps under
// RunRecoverable with a capture at every boundary and the given Save
// hook, and returns its stats and every record it left, decoded.
func runTokenCuts(t *testing.T, dir string, cuts int, save func(c *Proc, buf []byte) ([]byte, bool)) (*Stats, []*ckpt.Snapshot) {
	t.Helper()
	const p = 4
	cfg := Config{P: p, Transport: transport.ShmTransport{}, Checkpoint: &CheckpointConfig{Dir: dir, Every: 1}}
	st, err := RunRecoverable(cfg, func(c *Proc) {
		for s := 0; s < cuts; s++ {
			c.Send((c.ID()+1)%p, []byte{byte(s)})
			c.Sync()
		}
	}, Hooks{Save: save})
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
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
	return st, recs
}

// TestCaptureReferences: a state that changes at every boundary never
// yields a reference record; an unchanged one is written in full once
// per rank and referenced at every later cut, and the newest cut loads
// back with the full state.
func TestCaptureReferences(t *testing.T) {
	const cuts = 4
	changing := func(c *Proc, buf []byte) ([]byte, bool) {
		return append(buf, bytes.Repeat([]byte{byte(c.ID())}, 64)...), true
	}
	t.Run("changing", func(t *testing.T) {
		st, recs := runTokenCuts(t, t.TempDir(), cuts, func(c *Proc, buf []byte) ([]byte, bool) {
			buf, _ = changing(c, buf)
			buf[c.Step()%len(buf)] ^= 0xff
			return buf, true
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
		st, recs := runTokenCuts(t, dir, cuts, changing)
		for _, s := range recs {
			if want := min(s.Step-1, 1); s.Base != want {
				t.Fatalf("rank %d step %d: base %d, want %d", s.Rank, s.Step, s.Base, want)
			}
		}
		if st.Ckpt.Cuts != cuts || st.Ckpt.Bytes != 4*(64+cuts*5) {
			t.Fatalf("stats %+v: want %d cuts and one user section per rank in Bytes", st.Ckpt, cuts)
		}
		step, snaps, ok := (&ckpt.Store{Dir: dir}).LoadComplete(4)
		if !ok || step != cuts {
			t.Fatalf("LoadComplete = (%d, ok=%v), want (%d, true)", step, ok, cuts)
		}
		for r, s := range snaps {
			if !bytes.Equal(s.User, bytes.Repeat([]byte{byte(r)}, 64)) {
				t.Fatalf("rank %d: loaded %d user bytes, not its state", r, len(s.User))
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
	st, err := RunRecoverable(cfg, func(c *Proc) {
		for s := 0; s < 3; s++ {
			c.Send((c.ID()+1)%p, []byte{byte(c.ID() + s)})
			c.Sync()
			msg, _ := c.Recv()
			sums[c.ID()] += int(msg[0])
		}
	}, Hooks{Save: func(c *Proc, buf []byte) ([]byte, bool) { return append(buf, 1), true }})
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
