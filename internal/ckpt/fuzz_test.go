package ckpt

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzSnapshotRecord feeds arbitrary bytes to DecodeSnapshot and pins
// the codec's safety contract: decoding never panics, a record that
// decodes re-encodes to a record that decodes to the same snapshot, and
// the declared section lengths can never make the decoder read outside
// the input. Seed corpus: valid encodings plus near-miss mutations of
// each validation rule.
//
// The same input also pins streaming: with rec as the user section and
// a framed batch split into parts at the positions split picks, the
// bytes streamRecord writes equal EncodeSnapshot of the unsplit batch,
// and that record decodes back to its sections.
func FuzzSnapshotRecord(f *testing.F) {
	seeds := []*Snapshot{
		{Step: 0, Rank: 0, P: 1},
		{Step: 7, Rank: 3, P: 4, User: []byte("user-state")},
		{Step: 2, Rank: 1, P: 2, User: []byte{0}, Batches: [][]byte{sampleBatch("hello", "", "world")}},
		{Step: 1 << 33, Rank: 15, P: 16, Batches: [][]byte{sampleBatch(string(make([]byte, 300)))}},
	}
	split := uint64(0)
	add := func(rec []byte) {
		f.Add(rec, split)
		split = split*0x9E3779B97F4A7C15 + 7
	}
	for _, s := range seeds {
		rec := EncodeSnapshot(s)
		add(rec)
		// Mutations targeting each validation path.
		add(rec[:len(rec)-1])                          // truncated crc
		add(rec[:8])                                   // header only
		add(append(append([]byte(nil), rec...), 0xAA)) // trailing byte
		flip := append([]byte(nil), rec...)
		flip[len(flip)/2] ^= 1
		add(flip) // crc mismatch
	}
	add([]byte{})
	add([]byte("BSPC"))
	add(bytes.Repeat([]byte{0xFF}, 64)) // huge section lengths

	f.Fuzz(func(t *testing.T, rec []byte, split uint64) {
		checkStreamedSplit(t, rec, split)

		s, err := DecodeSnapshot(rec)
		if err != nil {
			return
		}
		// Accepted records must round-trip stably.
		again, err := DecodeSnapshot(EncodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-encoded accepted record rejected: %v", err)
		}
		if again.Step != s.Step || again.Rank != s.Rank || again.P != s.P ||
			!bytes.Equal(again.User, s.User) || !bytes.Equal(inboxOf(again), inboxOf(s)) {
			t.Fatalf("unstable round trip: %+v vs %+v", s, again)
		}
		// Validated invariants must actually hold on the output.
		if s.Step < 0 || s.Rank < 0 || s.Rank >= s.P {
			t.Fatalf("decoder accepted inconsistent header: %+v", s)
		}
	})
}

// checkStreamedSplit frames user's two halves and an empty message into
// one batch, cuts that batch into up to 8 parts (empty and nil parts
// included) at positions drawn from split, and checks that streaming
// the parts writes the record EncodeSnapshot makes of the whole batch.
func checkStreamedSplit(t *testing.T, user []byte, split uint64) {
	t.Helper()
	h := len(user) / 2
	batch := wire.AppendFrame(wire.AppendFrame(wire.AppendFrame(nil, user[:h]), nil), user[h:])
	p := 1 + int(split%16)
	want := &Snapshot{Step: int(split >> 40), Rank: int(split>>8) % p, P: p, User: user, Batches: [][]byte{batch}}

	var parts [][]byte
	rest := batch
	for k := 1 + int((split>>4)%8); k > 1; k-- {
		split = split*6364136223846793005 + 1442695040888963407
		if split>>60 == 0 {
			parts = append(parts, nil) // a silent source
		}
		n := int(split>>33) % (len(rest) + 1)
		parts, rest = append(parts, rest[:n]), rest[n:]
	}
	parts = append(parts, rest)

	var streamed bytes.Buffer
	if err := streamRecord(&streamed, &Snapshot{Step: want.Step, Rank: want.Rank, P: p, User: user, Batches: parts}); err != nil {
		t.Fatal(err)
	}
	rec := EncodeSnapshot(want)
	if !bytes.Equal(streamed.Bytes(), rec) {
		t.Fatalf("streaming %d parts wrote\n%x\nEncodeSnapshot of their concatenation is\n%x", len(parts), streamed.Bytes(), rec)
	}
	got, err := DecodeSnapshot(rec)
	if err != nil {
		t.Fatalf("streamed record rejected: %v", err)
	}
	if got.Step != want.Step || got.Rank != want.Rank || got.P != p ||
		!bytes.Equal(got.User, user) || !bytes.Equal(inboxOf(got), batch) {
		t.Fatalf("streamed record decoded to %+v, want %+v", got, want)
	}
}
