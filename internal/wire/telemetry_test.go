package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// sampleTelemetry is a tail whose every value grows with scale, as a
// member's cumulative counters do; the first counter plays the gauge
// that starts at -1.
func sampleTelemetry(scale int64) Telemetry {
	t := Telemetry{
		Epoch:       1_760_000_000_000_000_000,
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

// TestTelemetryRoundTrip: every tail reconstructs exactly on its own,
// in any order — the codec has no state — and re-encodes to the same
// bytes.
func TestTelemetryRoundTrip(t *testing.T) {
	var frames [][]byte
	var in []Telemetry
	for i := int64(1); i <= 20; i++ {
		tm := sampleTelemetry(i * 7)
		in = append(in, tm)
		frames = append(frames, AppendTelemetry(nil, &tm))
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(frames)) {
		out, err := DecodeTelemetry(frames[i])
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !equalTelemetry(in[i], out) {
			t.Fatalf("frame %d round-trip mismatch:\n in %+v\nout %+v", i, in[i], out)
		}
		if again := AppendTelemetry(nil, &out); !bytes.Equal(again, frames[i]) {
			t.Fatalf("frame %d re-encodes to %x, want %x", i, again, frames[i])
		}
	}
}

// TestTelemetryDecodeRejects: malformed tails must error, never
// panic or over-allocate — and so must every non-canonical spelling of
// a well-formed one, or "accepted bytes re-encode identically" fails.
func TestTelemetryDecodeRejects(t *testing.T) {
	tm := sampleTelemetry(5)
	good := AppendTelemetry(nil, &tm)
	cases := map[string][]byte{
		"empty":         {},
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte{}, good...), 0xff),
		"padded varint": {0x82, 0x00, 0, 0, 0, 0}, // epoch 1 spelled in two bytes
		"wide vector":   {2, 65},
		"long varint":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := DecodeTelemetry(b); err == nil {
			t.Errorf("%s: decode accepted malformed tail", name)
		}
	}
}

// TestTelemetryEncodeNoAlloc: every member beat encodes a tail while
// the superstep hot path runs, so encoding into a reused buffer must
// not allocate.
func TestTelemetryEncodeNoAlloc(t *testing.T) {
	tm := sampleTelemetry(1)
	buf := AppendTelemetry(make([]byte, 0, 512), &tm)
	allocs := testing.AllocsPerRun(100, func() {
		tm.Counters[1]++
		buf = AppendTelemetry(buf[:0], &tm)
	})
	if allocs != 0 {
		t.Errorf("steady-state encode: %.1f allocs/op, want 0", allocs)
	}
}

// FuzzTelemetryFrame: the decoder never panics on arbitrary tails,
// and — FuzzCtrl's property — whatever it accepts re-encodes to the
// very bytes given. Two tails per input, decoded independently: the
// order of arrival cannot matter to a stateless codec.
func FuzzTelemetryFrame(f *testing.F) {
	t1, t2 := sampleTelemetry(1), sampleTelemetry(4)
	f1, f2 := AppendTelemetry(nil, &t1), AppendTelemetry(nil, &t2)
	f.Add(f1, f2)
	f.Add(f2, f1)
	f.Add(f1[:len(f1)/2], f1)
	neg := Telemetry{Epoch: -3, Counters: []int64{-1, 0, -5}, StepDur: []int64{3}}
	f.Add(AppendTelemetry(nil, &neg), []byte{2, 1, 1, 0, 0, 0})
	rng := rand.New(rand.NewSource(42))
	junk := make([]byte, 64)
	rng.Read(junk)
	f.Add(junk, []byte{})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, data := range [][]byte{a, b} {
			got, err := DecodeTelemetry(data)
			if err != nil {
				continue
			}
			if again := AppendTelemetry(nil, &got); !bytes.Equal(again, data) {
				t.Fatalf("DecodeTelemetry(%x) = %+v re-encodes to %x", data, got, again)
			}
		}
	})
}
