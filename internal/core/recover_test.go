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
