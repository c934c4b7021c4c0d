package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// sampleBatch builds a valid wire frame batch of the given payloads.
func sampleBatch(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = wire.AppendFrame(b, []byte(p))
	}
	return b
}

// inboxOf is the batch section s encodes: its batches back to back.
func inboxOf(s *Snapshot) []byte { return bytes.Join(s.Batches, nil) }

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []Snapshot{
		{Step: 0, Rank: 0, P: 1},
		{Step: 3, Rank: 1, P: 4, User: []byte("state"), Batches: [][]byte{sampleBatch("msg-a", "msg-b")}},
		{Step: 1 << 40, Rank: 7, P: 8, User: make([]byte, 4096), Batches: [][]byte{sampleBatch("")}},
		{Step: 5, Rank: 2, P: 3, User: nil, Batches: nil},
		{Step: 6, Rank: 0, P: 3, Batches: [][]byte{sampleBatch("a"), nil, sampleBatch("", "bc")}},
	}
	for _, want := range cases {
		rec := EncodeSnapshot(&want)
		got, err := DecodeSnapshot(rec)
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if got.Step != want.Step || got.Rank != want.Rank || got.P != want.P ||
			!bytes.Equal(got.User, want.User) || !bytes.Equal(inboxOf(got), inboxOf(&want)) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	}
}

// TestDecodeRejectsCorruption exercises the validation matrix: every
// corrupted record must come back as an error, never as a partial
// snapshot, and never as a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := EncodeSnapshot(&Snapshot{Step: 9, Rank: 2, P: 4, User: []byte("u"), Batches: [][]byte{sampleBatch("m")}})

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeSnapshot(valid[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := 0; i < len(valid); i++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			if _, err := DecodeSnapshot(mut); err == nil {
				t.Fatalf("single-byte corruption at offset %d accepted", i)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), valid...), 0)); err == nil {
			t.Fatal("record with trailing byte accepted")
		}
	})
	t.Run("bad header fields", func(t *testing.T) {
		// Internally consistent records (crc recomputed) with nonsense
		// headers: rank out of range, p zero, broken batch framing.
		reencode := func(mut func(*Snapshot)) []byte {
			s := Snapshot{Step: 1, Rank: 0, P: 2, Batches: [][]byte{sampleBatch("x")}}
			mut(&s)
			return EncodeSnapshot(&s)
		}
		bad := [][]byte{
			reencode(func(s *Snapshot) { s.Rank = 2 }),                      // rank >= p
			reencode(func(s *Snapshot) { s.P = 0; s.Rank = 0 }),             // p < 1
			reencode(func(s *Snapshot) { s.Batches = [][]byte{{9, 9}} }),    // torn framing
			reencode(func(s *Snapshot) { s.Batches = [][]byte{{8, 0, 0}} }), // truncated length prefix
		}
		for i, rec := range bad {
			if _, err := DecodeSnapshot(rec); err == nil {
				t.Fatalf("bad header case %d accepted", i)
			}
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(mut[4:], 99)
		// Fix the crc so only the version is wrong.
		body := mut[:len(mut)-4]
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crcOf(body))
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatal("unknown version accepted")
		}
	})
}

func TestStoreCommitAndLoad(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	const p = 3
	for step := 1; step <= 2; step++ {
		for r := 0; r < p; r++ {
			s := &Snapshot{Step: step, Rank: r, P: p, User: []byte{byte(step), byte(r)}}
			if err := st.WriteRank(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(step, p); err != nil {
			t.Fatal(err)
		}
	}
	step, snaps, ok := st.LoadComplete(p)
	if !ok || step != 2 || len(snaps) != p {
		t.Fatalf("LoadComplete = (%d, %d snaps, %v), want (2, %d, true)", step, len(snaps), ok, p)
	}
	for r, s := range snaps {
		if s.Rank != r || s.Step != 2 {
			t.Fatalf("rank %d: got snapshot step=%d rank=%d", r, s.Step, s.Rank)
		}
	}
}

func TestLoadCompleteEmpty(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "never-created")}
	if _, _, ok := st.LoadComplete(4); ok {
		t.Fatal("LoadComplete reported a snapshot in a missing directory")
	}
	st = &Store{Dir: t.TempDir()}
	if _, _, ok := st.LoadComplete(4); ok {
		t.Fatal("LoadComplete reported a snapshot in an empty directory")
	}
}

// TestLoadCompleteFallback is the durability matrix: each corruption of
// the newest snapshot must silently disqualify it and fall back to the
// previous complete one.
func TestLoadCompleteFallback(t *testing.T) {
	const p = 2
	write := func(st *Store, step int) {
		t.Helper()
		for r := 0; r < p; r++ {
			if err := st.WriteRank(&Snapshot{Step: step, Rank: r, P: p, User: []byte("s")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(step, p); err != nil {
			t.Fatal(err)
		}
	}
	corruptions := []struct {
		name string
		mut  func(t *testing.T, st *Store)
	}{
		{"truncated rank file", func(t *testing.T, st *Store) {
			path := st.rankFile(5, 1)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o666); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad crc", func(t *testing.T, st *Store) {
			path := st.rankFile(5, 0)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(path, b, 0o666); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing rank file", func(t *testing.T, st *Store) {
			if err := os.Remove(st.rankFile(5, 1)); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest names missing step", func(t *testing.T, st *Store) {
			for r := 0; r < p; r++ {
				if err := os.Remove(st.rankFile(5, r)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			st := &Store{Dir: t.TempDir()}
			write(st, 3)
			write(st, 5) // newest; the manifest points here
			c.mut(t, st)
			step, snaps, ok := st.LoadComplete(p)
			if !ok || step != 3 {
				t.Fatalf("LoadComplete = (%d, ok=%v), want fallback to step 3", step, ok)
			}
			for r, s := range snaps {
				if s.Step != 3 || s.Rank != r {
					t.Fatalf("fallback snapshot rank %d: step=%d rank=%d", r, s.Step, s.Rank)
				}
			}
		})
	}
	// A garbage manifest alone costs nothing: the directory scan still
	// finds the newest intact snapshot.
	t.Run("garbage manifest", func(t *testing.T) {
		st := &Store{Dir: t.TempDir()}
		write(st, 3)
		write(st, 5)
		if err := os.WriteFile(filepath.Join(st.Dir, "MANIFEST"), []byte("step NaN\x00"), 0o666); err != nil {
			t.Fatal(err)
		}
		if step, _, ok := st.LoadComplete(p); !ok || step != 5 {
			t.Fatalf("LoadComplete = (%d, ok=%v) under garbage manifest, want (5, true)", step, ok)
		}
	})
	t.Run("everything corrupt", func(t *testing.T) {
		st := &Store{Dir: t.TempDir()}
		write(st, 3)
		for r := 0; r < p; r++ {
			if err := os.WriteFile(st.rankFile(3, r), []byte("junk"), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, ok := st.LoadComplete(p); ok {
			t.Fatal("LoadComplete accepted a fully corrupted store")
		}
	})
}

// TestLoadCompleteWrongP: a snapshot set of a different machine size is
// not restorable and must be skipped.
func TestLoadCompleteWrongP(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for r := 0; r < 2; r++ {
		if err := st.WriteRank(&Snapshot{Step: 1, Rank: r, P: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.LoadComplete(4); ok {
		t.Fatal("LoadComplete restored a p=2 snapshot into a p=4 machine")
	}
}

// TestAtomicWriteLeftovers: a stray *.tmp file (simulated crash mid-
// write) must not confuse loading.
func TestAtomicWriteLeftovers(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	if err := st.WriteRank(&Snapshot{Step: 1, Rank: 0, P: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(st.Dir, "snap-000000000002-r0000.ckpt.tmp123")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o666); err != nil {
		t.Fatal(err)
	}
	step, _, ok := st.LoadComplete(1)
	if !ok || step != 1 {
		t.Fatalf("LoadComplete = (%d, ok=%v) with stray tmp file, want (1, true)", step, ok)
	}
}

// goldenSnapshot is the snapshot testdata/record_v1.golden holds: a
// four-source inbox with an empty frame, a silent source (nil batch)
// and a batch holding only an empty frame. The golden was written by
// the encoder that re-framed every inbox frame into one batch, so it
// pins that streaming the inbox's own batches did not change the
// format.
func goldenSnapshot() *Snapshot {
	return &Snapshot{Step: 3, Rank: 1, P: 4, User: []byte("user-state\x00\x01"), Batches: [][]byte{
		sampleBatch("from-0", "", "tail"),
		nil,
		sampleBatch("from-2:0123456789abcdef"),
		sampleBatch(""),
	}}
}

// TestRecordGolden: version-1 records are byte-identical whether
// streamed to a file by WriteRank or built by EncodeSnapshot, and a
// record written before streaming existed still decodes.
func TestRecordGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "record_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSnapshot()
	st := &Store{Dir: t.TempDir()}
	if err := st.WriteRank(want); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(st.rankFile(want.Step, want.Rank))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, golden) {
		t.Errorf("WriteRank wrote\n%x\ngolden is\n%x", file, golden)
	}
	if rec := EncodeSnapshot(want); !bytes.Equal(rec, golden) {
		t.Errorf("EncodeSnapshot made\n%x\ngolden is\n%x", rec, golden)
	}
	got, err := DecodeSnapshot(golden)
	if err != nil {
		t.Fatalf("golden record rejected: %v", err)
	}
	if got.Step != want.Step || got.Rank != want.Rank || got.P != want.P ||
		!bytes.Equal(got.User, want.User) || !bytes.Equal(inboxOf(got), inboxOf(want)) {
		t.Fatalf("golden decoded to %+v, want %+v", got, want)
	}
}

// TestEncodeSnapshotAllocs: EncodeSnapshot sizes its buffer to the
// whole record, crc included, so encoding is exactly one allocation.
func TestEncodeSnapshotAllocs(t *testing.T) {
	s := &Snapshot{Step: 4, Rank: 0, P: 2, User: make([]byte, 1<<20), Batches: goldenSnapshot().Batches}
	if n := testing.AllocsPerRun(10, func() { EncodeSnapshot(s) }); n != 1 {
		t.Fatalf("EncodeSnapshot of a 1 MiB user section allocates %.1f times, want 1", n)
	}
}
