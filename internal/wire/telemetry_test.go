package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// sampleTelemetry is a frame whose every value grows with scale, as a
// member's cumulative counters do; the first counter plays the gauge
// that starts at -1.
func sampleTelemetry(scale int64) Telemetry {
	t := Telemetry{
		Counters:    []int64{scale - 1, scale, scale * 1_000_003, scale * 400_007, scale * 129, scale * 131, scale * 2048, scale * 310_000, scale / 2, scale / 3, scale / 7, scale / 9},
		StepDur:     []int64{scale, scale * 2, 0, scale / 2},
		SyncWait:    []int64{0, scale, scale * 3},
		MetricsAddr: "127.0.0.1:9402",
	}
	for len(t.Counters) < 24 { // a realistic row width; the tail never moves
		t.Counters = append(t.Counters, 0)
	}
	return t
}

// equalTelemetry ignores nil-vs-empty slice differences, which the
// codec does not promise to preserve.
func equalTelemetry(a, b Telemetry) bool {
	norm := func(t *Telemetry) {
		for _, v := range t.vectors() {
			if len(*v) == 0 {
				*v = nil
			}
		}
	}
	norm(&a)
	norm(&b)
	return reflect.DeepEqual(a, b)
}

// TestTelemetryRoundTrip: a monotone stream of snapshots must
// reconstruct exactly through the stateful delta codec, and the
// steady-state frames must be far smaller than the fixed-width
// equivalent.
func TestTelemetryRoundTrip(t *testing.T) {
	var enc TelemetryEncoder
	var dec TelemetryDecoder
	var buf []byte
	for i := int64(1); i <= 20; i++ {
		in := sampleTelemetry(i * 7)
		buf = enc.AppendEncode(buf[:0], &in)
		if in.Seq != uint32(i) {
			t.Fatalf("frame %d assigned seq %d", i, in.Seq)
		}
		out, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !equalTelemetry(in, out) {
			t.Fatalf("frame %d round-trip mismatch:\n in %+v\nout %+v", i, in, out)
		}
		// Fixed-width encoding of the same frame would be 31 8-byte
		// values + the addr: > 260 bytes.
		if i > 1 && len(buf) > 100 {
			t.Errorf("steady-state delta frame is %d bytes, want compact (<100)", len(buf))
		}
	}
}

// TestTelemetryBaselineReset: a fresh encoder (warm-restarted member)
// emits Seq 1, which must reset the decoder's accumulated state even
// though the old incarnation's counters were much larger.
func TestTelemetryBaselineReset(t *testing.T) {
	var enc1 TelemetryEncoder
	var dec TelemetryDecoder
	for i := int64(1); i <= 5; i++ {
		in := sampleTelemetry(i * 100)
		if _, err := dec.Decode(enc1.AppendEncode(nil, &in)); err != nil {
			t.Fatalf("epoch-0 frame %d: %v", i, err)
		}
	}
	var enc2 TelemetryEncoder // fresh incarnation, small counters again
	in := sampleTelemetry(3)
	out, err := dec.Decode(enc2.AppendEncode(nil, &in))
	if err != nil {
		t.Fatalf("baseline after restart: %v", err)
	}
	if out.Seq != 1 || !equalTelemetry(in, out) {
		t.Fatalf("baseline reset mismatch:\n in %+v\nout %+v", in, out)
	}
	// And the restarted stream keeps decoding.
	in2 := sampleTelemetry(9)
	out2, err := dec.Decode(enc2.AppendEncode(nil, &in2))
	if err != nil || !equalTelemetry(in2, out2) {
		t.Fatalf("post-reset delta frame: err=%v\n in %+v\nout %+v", err, in2, out2)
	}
}

// TestTelemetryGapDetection: dropping a delta frame must surface as
// ErrTelemetryGap, and the stream must recover at the next baseline.
func TestTelemetryGapDetection(t *testing.T) {
	var enc TelemetryEncoder
	var dec TelemetryDecoder
	t1 := sampleTelemetry(1)
	t2 := sampleTelemetry(2)
	t3 := sampleTelemetry(3)
	f1 := enc.AppendEncode(nil, &t1)
	_ = enc.AppendEncode(nil, &t2) // lost in transit
	f3 := enc.AppendEncode(nil, &t3)
	if _, err := dec.Decode(f1); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(f3); !errors.Is(err, ErrTelemetryGap) {
		t.Fatalf("decode after gap: err=%v, want ErrTelemetryGap", err)
	}
	var enc2 TelemetryEncoder
	t4 := sampleTelemetry(4)
	if out, err := dec.Decode(enc2.AppendEncode(nil, &t4)); err != nil || !equalTelemetry(t4, out) {
		t.Fatalf("baseline after gap: err=%v out=%+v", err, out)
	}
}

// TestTelemetryDeltaBeforeBaseline: a decoder that joins mid-stream
// (coordinator restart would need this) refuses delta frames until it
// sees a baseline.
func TestTelemetryDeltaBeforeBaseline(t *testing.T) {
	var enc TelemetryEncoder
	t1 := sampleTelemetry(1)
	t2 := sampleTelemetry(2)
	_ = enc.AppendEncode(nil, &t1)
	f2 := enc.AppendEncode(nil, &t2)
	var dec TelemetryDecoder
	if _, err := dec.Decode(f2); !errors.Is(err, ErrTelemetryBaseline) {
		t.Fatalf("err=%v, want ErrTelemetryBaseline", err)
	}
}

// TestTelemetryDecodeRejects: malformed frames must error, never
// panic or over-allocate — and so must every non-canonical spelling of
// a well-formed one, or "accepted bytes re-encode identically" fails.
func TestTelemetryDecodeRejects(t *testing.T) {
	var enc TelemetryEncoder
	tm := sampleTelemetry(5)
	good := enc.AppendEncode(nil, &tm)
	cases := map[string][]byte{
		"empty":         {},
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte{}, good...), 0xff),
		"padded varint": append([]byte{0x81, 0x00}, good[1:]...), // seq 1 spelled in two bytes
		"wide vector":   {1, 65},
		"seq overflow":  {0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0},
	}
	for name, b := range cases {
		var dec TelemetryDecoder
		if _, err := dec.Decode(b); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
}

// TestTelemetryEncodeNoAlloc: the push loop runs concurrently with the
// superstep hot path, so steady-state encoding must not allocate.
func TestTelemetryEncodeNoAlloc(t *testing.T) {
	var enc TelemetryEncoder
	tm := sampleTelemetry(1)
	buf := enc.AppendEncode(make([]byte, 0, 512), &tm)
	n := int64(2)
	allocs := testing.AllocsPerRun(100, func() {
		tm = sampleTelemetry(n)
		n++
		buf = enc.AppendEncode(buf[:0], &tm)
	})
	// sampleTelemetry itself allocates its three vectors (the counter
	// row grows twice on the way to full width); allow those but nothing
	// from the encoder.
	if allocs > 5 {
		t.Errorf("steady-state encode: %.1f allocs/op, want <= 5", allocs)
	}
}

// FuzzTelemetryFrame: the decoder never panics on arbitrary payloads,
// and — FuzzCtrl's property, for a stateful codec — whatever a decoder
// accepts, an encoder that has seen the same stream re-encodes to the
// very bytes given. Two payloads per input, so delta frames (accepted
// only after a baseline) are reached too.
func FuzzTelemetryFrame(f *testing.F) {
	var enc TelemetryEncoder
	t1, t2 := sampleTelemetry(1), sampleTelemetry(4)
	f1 := enc.AppendEncode(nil, &t1)
	f2 := enc.AppendEncode(nil, &t2)
	f.Add(f1, f2)
	f.Add(f2, f1)
	f.Add(f1[:len(f1)/2], f1)
	var encNeg TelemetryEncoder
	neg := Telemetry{Counters: []int64{-1, 0, -5}, StepDur: []int64{3}}
	f.Add(encNeg.AppendEncode(nil, &neg), []byte{2, 1, 1, 0, 0, 0})
	rng := rand.New(rand.NewSource(42))
	junk := make([]byte, 64)
	rng.Read(junk)
	f.Add(junk, []byte{})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var dec TelemetryDecoder
		var re TelemetryEncoder
		for _, data := range [][]byte{a, b} {
			got, err := dec.Decode(data)
			if err != nil {
				continue
			}
			if got.Seq == 1 {
				re = TelemetryEncoder{} // a baseline restarts the stream
			}
			again := got
			if reframed := re.AppendEncode(nil, &again); !bytes.Equal(reframed, data) || again.Seq != got.Seq {
				t.Fatalf("Decode(%x) = %+v re-encodes to %x (seq %d)", data, got, reframed, again.Seq)
			}
		}
	})
}
