package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestFrameRoundTrip: AppendFrame/encodeBatch followed by
// FrameCount/decodeBatch/FrameIter recovers exactly the encoded message
// sequence, including empty messages and an empty batch.
func TestFrameRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{{}},
		{[]byte("a")},
		{[]byte("hello"), {}, []byte("world"), bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for ci, msgs := range cases {
		var batch []byte
		for _, m := range msgs {
			batch = AppendFrame(batch, m)
		}
		enc := encodeBatch(nil, msgs)
		if !bytes.Equal(batch, enc) {
			t.Errorf("case %d: AppendFrame and encodeBatch disagree", ci)
		}
		n, err := FrameCount(batch)
		if err != nil || n != len(msgs) {
			t.Errorf("case %d: FrameCount = %d, %v; want %d, nil", ci, n, err, len(msgs))
		}
		views, err := decodeBatch(nil, batch)
		if err != nil || len(views) != len(msgs) {
			t.Fatalf("case %d: decodeBatch = %d views, %v", ci, len(views), err)
		}
		var it FrameIter
		it.Reset(batch)
		for i, want := range msgs {
			if !bytes.Equal(views[i], want) {
				t.Errorf("case %d: view %d = %q, want %q", ci, i, views[i], want)
			}
			got, ok := it.Next()
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("case %d: iter frame %d = %q ok=%v, want %q", ci, i, got, ok, want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Errorf("case %d: iterator yields frames past the batch end", ci)
		}
	}
}

// TestFrameViewsCapped: decoded views must be three-index slices, so an
// append through a view cannot overwrite the next frame in the batch.
func TestFrameViewsCapped(t *testing.T) {
	batch := encodeBatch(nil, [][]byte{[]byte("aa"), []byte("bb")})
	views, err := decodeBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if cap(views[0]) != len(views[0]) {
		t.Fatalf("view cap %d > len %d: append could clobber the next frame", cap(views[0]), len(views[0]))
	}
	_ = append(views[0], 0xFF) // must reallocate, not scribble
	if string(views[1]) != "bb" {
		t.Fatalf("append through view corrupted sibling frame: %q", views[1])
	}
}

// TestFrameCorruptBatch: truncated headers, truncated payloads and
// absurd lengths are reported, never sliced out of range.
func TestFrameCorruptBatch(t *testing.T) {
	good := encodeBatch(nil, [][]byte{[]byte("payload")})
	for _, tc := range []struct {
		name  string
		batch []byte
	}{
		{"short header", good[:2]},
		{"short payload", good[:len(good)-3]},
		{"huge length", binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1)},
	} {
		if _, err := FrameCount(tc.batch); err == nil {
			t.Errorf("%s: FrameCount accepted a corrupt batch", tc.name)
		}
		if _, err := decodeBatch(nil, tc.batch); err == nil {
			t.Errorf("%s: decodeBatch accepted a corrupt batch", tc.name)
		}
	}
}

// FuzzFrameBatch feeds arbitrary bytes to the batch validator and
// decoder: they must agree with each other and never panic or slice out
// of range; any batch FrameCount accepts must decode into frames that
// re-encode to the identical bytes.
func FuzzFrameBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBatch(nil, [][]byte{[]byte("seed"), {}, []byte("x")}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, batch []byte) {
		n, cntErr := FrameCount(batch)
		views, decErr := decodeBatch(nil, batch)
		if (cntErr == nil) != (decErr == nil) {
			t.Fatalf("FrameCount err=%v but decodeBatch err=%v", cntErr, decErr)
		}
		if cntErr != nil {
			return
		}
		if len(views) != n {
			t.Fatalf("FrameCount = %d but decodeBatch yielded %d views", n, len(views))
		}
		if re := encodeBatch(nil, views); !bytes.Equal(re, batch) {
			t.Fatalf("re-encoding %d decoded frames does not reproduce the batch", n)
		}
	})
}

// encodeBatch frames every message of msgs into dst in one call and
// returns the extended buffer (the whole per-pair buffer encode).
func encodeBatch(dst []byte, msgs [][]byte) []byte {
	n := 0
	for _, m := range msgs {
		n += frameHdrLen + len(m)
	}
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for _, m := range msgs {
		dst = AppendFrame(dst, m)
	}
	return dst
}

// decodeBatch appends a zero-copy view of every frame payload in batch
// to views and returns the extended slice (the whole per-pair buffer
// decode). The views alias batch and share its lifetime. batch must
// have been validated (FrameCount) or locally produced; a malformed
// batch returns an error with the views decoded so far.
func decodeBatch(views [][]byte, batch []byte) ([][]byte, error) {
	for off := 0; off < len(batch); {
		view, next, err := frameAt(batch, off)
		if err != nil {
			return views, err
		}
		views = append(views, view)
		off = next
	}
	return views, nil
}
