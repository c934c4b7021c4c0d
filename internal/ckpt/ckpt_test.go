package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// encode returns s's record as WriteRank streams it to a file.
func encode(s *Snapshot) []byte {
	var b bytes.Buffer
	if err := streamRecord(&b, s); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	cases := []Snapshot{
		{Step: 0, Rank: 0, P: 1},
		{Step: 3, Rank: 1, P: 4, User: []byte("state"), Batches: [][]byte{sampleBatch("msg-a", "msg-b")}},
		{Step: 1 << 40, Rank: 7, P: 8, User: make([]byte, 4096), Batches: [][]byte{sampleBatch("")}},
		{Step: 5, Rank: 2, P: 3, User: nil, Batches: nil},
		{Step: 6, Rank: 0, P: 3, Batches: [][]byte{sampleBatch("a"), nil, sampleBatch("", "bc")}},
	}
	for _, want := range cases {
		rec := encode(&want)
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
	valid := encode(&Snapshot{Step: 9, Rank: 2, P: 4, User: []byte("u"), Batches: [][]byte{sampleBatch("m")}})

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
			return encode(&s)
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
	t.Run("bad reference", func(t *testing.T) {
		// Records that say they are references but cannot be one: no
		// base, a base not before the step, user bytes of their own.
		bad := [][]byte{
			encode(&Snapshot{Step: 4, Rank: 0, P: 1, Base: 4}),
			encode(&Snapshot{Step: 4, Rank: 0, P: 1, Base: 9}),
			encode(&Snapshot{Step: 4, Rank: 0, P: 1, Base: 2, User: []byte("u")}),
		}
		zero := encode(&Snapshot{Step: 4, Rank: 0, P: 1, Base: 2})
		binary.LittleEndian.PutUint64(zero[24:], 0)
		binary.LittleEndian.PutUint32(zero[len(zero)-4:], crcOf(zero[:len(zero)-4]))
		for i, rec := range append(bad, zero) {
			if _, err := DecodeSnapshot(rec); err == nil {
				t.Fatalf("bad reference case %d accepted", i)
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

func TestStoreWriteAndLoad(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	const p = 3
	for step := 1; step <= 2; step++ {
		for r := 0; r < p; r++ {
			s := &Snapshot{Step: step, Rank: r, P: p, User: []byte{byte(step), byte(r)}}
			if err := st.WriteRank(s); err != nil {
				t.Fatal(err)
			}
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
		{"newest step missing", func(t *testing.T, st *Store) {
			for r := 0; r < p; r++ {
				if err := os.Remove(st.rankFile(5, r)); err != nil {
					t.Fatal(err)
				}
			}
			// A MANIFEST an older version of the store left, naming the
			// lost step, is not read.
			if err := os.WriteFile(filepath.Join(st.Dir, "MANIFEST"), []byte("step 5 p 2\n"), 0o666); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			st := &Store{Dir: t.TempDir()}
			write(st, 3)
			write(st, 5) // newest
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
	// A stray garbage MANIFEST is not a record: the directory scan
	// still finds the newest intact snapshot.
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
	if _, _, ok := st.LoadComplete(4); ok {
		t.Fatal("LoadComplete restored a p=2 snapshot into a p=4 machine")
	}
}

// TestAtomicWriteLeftovers: the newest cut has one rank's record only
// as the *.tmp file a flush never renamed (a crash between capture and
// durability); together with an unrelated stray *.tmp it must not
// confuse loading, which returns the previous cut.
func TestAtomicWriteLeftovers(t *testing.T) {
	const p = 2
	st := &Store{Dir: t.TempDir()}
	for r := 0; r < p; r++ {
		if err := st.WriteRank(&Snapshot{Step: 1, Rank: r, P: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteRank(&Snapshot{Step: 2, Rank: 0, P: p}); err != nil {
		t.Fatal(err)
	}
	unflushed, err := st.Stage(&Snapshot{Step: 2, Rank: 1, P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer unflushed.Discard()
	tmp := filepath.Join(st.Dir, "snap-000000000003-r0000.ckpt.tmp123")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o666); err != nil {
		t.Fatal(err)
	}
	step, _, ok := st.LoadComplete(p)
	if !ok || step != 1 {
		t.Fatalf("LoadComplete = (%d, ok=%v) with an unrenamed record in cut 2, want (1, true)", step, ok)
	}
	if err := unflushed.Publish(); err != nil {
		t.Fatal(err)
	}
	if step, _, ok := st.LoadComplete(p); !ok || step != 2 {
		t.Fatalf("LoadComplete = (%d, ok=%v) once the record is published, want (2, true)", step, ok)
	}
}

// TestPublishDirSyncError: Publish fsyncs the directory once after the
// rename, and a failed directory fsync fails the publish, so the
// flusher records the error and does not count the record as durable.
func TestPublishDirSyncError(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	injected := errors.New("injected directory fsync failure")
	var syncs int
	var fail bool
	syncDir = func(dir string) error {
		syncs++
		if fail {
			return injected
		}
		return orig(dir)
	}
	st := &Store{Dir: t.TempDir()}
	if err := st.WriteRank(&Snapshot{Step: 1, Rank: 0, P: 1}); err != nil || syncs != 1 {
		t.Fatalf("WriteRank = %v after %d directory fsyncs, want nil after 1", err, syncs)
	}
	fail = true
	if err := st.WriteRank(&Snapshot{Step: 2, Rank: 0, P: 1}); !errors.Is(err, injected) || syncs != 2 {
		t.Fatalf("WriteRank = %v after %d directory fsyncs, want the injected failure after 2", err, syncs)
	}
}

// TestLoadCompleteReference: a cut of reference records loads with each
// rank's user state taken from its base; a reference whose base is
// missing, corrupt, of another rank or P, or itself a reference
// disqualifies its step.
func TestLoadCompleteReference(t *testing.T) {
	const p = 2
	user := func(step, r int) []byte { return []byte{byte(step), byte(r), 's'} }
	inbox := sampleBatch("m")
	// Cuts 1 and 2 are full, cut 3 references cut 2.
	build := func(t *testing.T) *Store {
		st := &Store{Dir: t.TempDir()}
		for step := 1; step <= 3; step++ {
			for r := 0; r < p; r++ {
				s := &Snapshot{Step: step, Rank: r, P: p, User: user(step, r), Batches: [][]byte{inbox}}
				if step == 3 {
					s.User, s.Base = nil, 2
				}
				if err := st.WriteRank(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	}
	overwrite := func(t *testing.T, st *Store, step, r int, s *Snapshot) {
		if err := os.WriteFile(st.rankFile(step, r), encode(s), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	st := build(t)
	step, snaps, ok := st.LoadComplete(p)
	if !ok || step != 3 {
		t.Fatalf("LoadComplete = (%d, ok=%v), want (3, true)", step, ok)
	}
	for r, s := range snaps {
		if s.Step != 3 || s.Base != 0 || !bytes.Equal(s.User, user(2, r)) || !bytes.Equal(inboxOf(s), inbox) {
			t.Fatalf("rank %d: loaded %+v, want step 3 with cut 2's user state and its own inbox", r, s)
		}
	}

	cases := []struct {
		name string
		mut  func(t *testing.T, st *Store)
		want int
	}{
		{"base missing", func(t *testing.T, st *Store) {
			if err := os.Remove(st.rankFile(2, 1)); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"base bad crc", func(t *testing.T, st *Store) {
			b, err := os.ReadFile(st.rankFile(2, 1))
			if err != nil {
				t.Fatal(err)
			}
			b[headerLen] ^= 0xff
			if err := os.WriteFile(st.rankFile(2, 1), b, 0o666); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"base of another rank", func(t *testing.T, st *Store) {
			overwrite(t, st, 2, 1, &Snapshot{Step: 2, Rank: 0, P: p, User: user(2, 1)})
		}, 1},
		{"base of another p", func(t *testing.T, st *Store) {
			overwrite(t, st, 2, 1, &Snapshot{Step: 2, Rank: 1, P: p + 1, User: user(2, 1)})
		}, 1},
		{"base is a reference", func(t *testing.T, st *Store) {
			// Cut 2 stays loadable (its reference names a full cut 1);
			// cut 3 would need a second hop.
			overwrite(t, st, 2, 1, &Snapshot{Step: 2, Rank: 1, P: p, Base: 1})
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := build(t)
			c.mut(t, st)
			step, snaps, ok := st.LoadComplete(p)
			if !ok || step != c.want {
				t.Fatalf("LoadComplete = (%d, ok=%v), want (%d, true)", step, ok, c.want)
			}
			if c.want == 2 && !bytes.Equal(snaps[1].User, user(1, 1)) {
				t.Fatalf("cut 2 rank 1 resolved to user %q, want cut 1's", snaps[1].User)
			}
		})
	}
}

// TestWriterReferences: a Writer stages a reference exactly when the
// user state equals the last full record's — same length and crc is not
// enough, and how the section is split between User and Views does not
// matter — and the records it stages load back to the states saved.
func TestWriterReferences(t *testing.T) {
	const p = 1
	st := &Store{Dir: t.TempDir()}
	w := st.NewWriter()
	defer w.Close()
	big := bytes.Repeat([]byte("0123456789abcdef"), 5000) // several read-back chunks
	flipped := append([]byte(nil), big...)
	flipped[len(flipped)-1] ^= 1
	// crcTwin has big's length and crc32 but other bytes: XOR-ing the
	// 33-bit IEEE generator polynomial (bit-reflected, 0x1DB710641) into
	// a message adds a multiple of it, which leaves the crc unchanged.
	crcTwin := append([]byte(nil), big...)
	for i, d := range []byte{0x41, 0x06, 0x71, 0xDB, 0x01} {
		crcTwin[100+i] ^= d
	}
	if crcOf(crcTwin) != crcOf(big) {
		t.Fatal("crcTwin is not a crc32 collision")
	}
	states := []struct {
		user  []byte
		split bool // staged as User and two Views
		base  int  // 0 = full record expected
	}{
		{big, false, 0},
		{big, false, 1},
		{big, true, 1},
		{flipped, true, 0},
		{flipped, false, 4},
		{crcTwin, false, 0},
		{crcTwin, true, 6},
		{nil, false, 0},
		{[]byte{}, true, 8},
	}
	for i, c := range states {
		step := i + 1
		snap := &Snapshot{Step: step, Rank: 0, P: p, User: c.user}
		if c.split {
			a, b := len(c.user)/3, 2*len(c.user)/3
			snap.User, snap.Views = c.user[:a], [][]byte{c.user[a:b], c.user[b:]}
		}
		rec, err := w.Stage(snap)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Base != c.base {
			t.Fatalf("step %d: staged base %d, want %d", step, rec.Base, c.base)
		}
		if err := rec.Publish(); err != nil {
			t.Fatal(err)
		}
		got, snaps, ok := st.LoadComplete(p)
		if !ok || got != step || !bytes.Equal(snaps[0].User, c.user) {
			t.Fatalf("step %d: LoadComplete = (%d, ok=%v) with %d user bytes, want the %d saved", step, got, ok, len(snaps[0].User), len(c.user))
		}
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

// TestRecordGolden: WriteRank streams a version-1 record byte-identical
// to one written before streaming existed, and that record still
// decodes.
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
	got, err := DecodeSnapshot(golden)
	if err != nil {
		t.Fatalf("golden record rejected: %v", err)
	}
	if got.Step != want.Step || got.Rank != want.Rank || got.P != want.P ||
		!bytes.Equal(got.User, want.User) || !bytes.Equal(inboxOf(got), inboxOf(want)) {
		t.Fatalf("golden decoded to %+v, want %+v", got, want)
	}
}

// TestRecordRefGolden pins the version-2 reference layout:
// testdata/record_ref.golden was built from the layout documented at
// writeRecord, not by this encoder, with goldenSnapshot's inbox. WriteRank
// must produce it and it must decode to the reference.
func TestRecordRefGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "record_ref.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{Step: 5, Rank: 1, P: 4, Base: 3, Batches: goldenSnapshot().Batches}
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
	got, err := DecodeSnapshot(golden)
	if err != nil {
		t.Fatalf("golden record rejected: %v", err)
	}
	if got.Step != want.Step || got.Rank != want.Rank || got.P != want.P || got.Base != want.Base ||
		len(got.User) != 0 || !bytes.Equal(inboxOf(got), inboxOf(want)) {
		t.Fatalf("golden decoded to %+v, want %+v", got, want)
	}
}
