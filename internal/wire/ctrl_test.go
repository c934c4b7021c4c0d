package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// ctrlSamples is one valid message per tag (plus the signed and empty
// corner cases), shared by the round-trip test and the fuzz seeds.
var ctrlSamples = []Ctrl{
	Join{Handshake: Handshake{JobID: "job-1", Rank: 3, Epoch: 7, P: 4}, DataAddr: "127.0.0.1:4242"},
	Join{},
	Book{Addrs: []string{"127.0.0.1:1", "", "127.0.0.1:3"}},
	Book{Addrs: []string{}},
	Reject{Reason: "duplicate rank 0"},
	Abort{Reason: "local abort"},
	Abort{},
	Leave{Rank: 2},
	Ping{Heartbeat: Heartbeat{Rank: 3, Epoch: 2, Seq: 41}},
	Ping{Heartbeat: Heartbeat{Rank: CoordinatorRank, Epoch: 7, Seq: 1 << 30}},
	Crash{Rank: 1, NewEpoch: 5, Reason: "rank 1 disconnected"},
	Dump{Reason: "why"},
	Ping{Heartbeat: Heartbeat{Rank: 1, Epoch: 3, Seq: 9}, Tail: AppendTelemetry(nil, &Telemetry{Epoch: 1e18, Counters: []int64{-1, 4}, MetricsAddr: "127.0.0.1:9"})},
}

func TestCtrlRoundTrip(t *testing.T) {
	var pipe bytes.Buffer
	cc := NewCtrlConn(&pipe)
	for _, want := range ctrlSamples {
		got, err := ParseCtrl(AppendCtrl(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseCtrl(AppendCtrl(%#v)) = %#v, %v", want, got, err)
		}
		if err := cc.Write(want); err != nil {
			t.Fatal(err)
		}
	}
	// The framed path delivers the same sequence, then a clean EOF.
	for _, want := range ctrlSamples {
		got, err := cc.Read()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("CtrlConn round trip of %#v = %#v, %v", want, got, err)
		}
	}
	if _, err := cc.Read(); err != io.EOF {
		t.Errorf("read past the last frame = %v, want io.EOF", err)
	}
}

func TestCtrlRejectsMalformed(t *testing.T) {
	stale := Join{Handshake: Handshake{JobID: "j", P: 1}}
	staleFrame := AppendCtrl(nil, stale)
	staleFrame[1+4+4] = HandshakeVersion - 1 // the version word inside the handshake payload
	for name, b := range map[string][]byte{
		"empty":                    {},
		"unknown tag":              {'?', 1, 2, 3},
		"a v1 bare handshake":      Handshake{JobID: "j", P: 1}.EncodePayload(),
		"stale-version join":       staleFrame,
		"short leave":              {'L', 1, 0},
		"long leave":               {'L', 1, 0, 0, 0, 9},
		"short ping":               AppendCtrl(nil, Ping{})[:12],
		"short crash":              {'C', 1, 0, 0, 0, 2},
		"book claiming 2^32-1":     {'B', 0xff, 0xff, 0xff, 0xff},
		"book with a short entry":  append(AppendCtrl(nil, Book{Addrs: []string{"abc"}})[:9], 'a'),
		"book with trailing junk":  append(AppendCtrl(nil, Book{Addrs: []string{"abc"}}), 0),
		"join with a short prefix": {'J', 200, 0, 0, 0, 1},
	} {
		if c, err := ParseCtrl(b); !errors.Is(err, ErrCtrl) {
			t.Errorf("%s: ParseCtrl = %#v, %v; want ErrCtrl", name, c, err)
		}
	}
	if _, err := ParseCtrl(staleFrame); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("a stale child must be rejected by version, got %v", err)
	}
	// Framing: a zero or absurd length is a protocol violation, a
	// truncated body an I/O error.
	for name, tc := range map[string]struct {
		raw  []byte
		ctrl bool
	}{
		"zero length":    {[]byte{0, 0, 0, 0}, true},
		"absurd length":  {[]byte{0, 0, 0, 0x80}, true},
		"truncated body": {[]byte{5, 0, 0, 0, 'L', 1}, false},
	} {
		_, err := NewCtrlConn(bytes.NewBuffer(tc.raw)).Read()
		if err == nil || errors.Is(err, ErrCtrl) != tc.ctrl {
			t.Errorf("%s: Read = %v, want ErrCtrl=%v", name, err, tc.ctrl)
		}
	}
}

// FuzzCtrl: ParseCtrl never panics, and whatever it accepts re-encodes
// to the very bytes it was given (the encoding is canonical, so
// ParseCtrl∘AppendCtrl is the identity on every reachable value).
func FuzzCtrl(f *testing.F) {
	for _, c := range ctrlSamples {
		b := AppendCtrl(nil, c)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := ParseCtrl(b)
		if err != nil {
			if !errors.Is(err, ErrCtrl) {
				t.Fatalf("ParseCtrl(%x): error %v does not wrap ErrCtrl", b, err)
			}
			return
		}
		again := AppendCtrl(nil, c)
		if !bytes.Equal(again, b) {
			t.Fatalf("ParseCtrl(%x) = %#v re-encodes to %x", b, c, again)
		}
		if c2, err := ParseCtrl(again); err != nil || !reflect.DeepEqual(c2, c) {
			t.Fatalf("round trip of %#v = %#v, %v", c, c2, err)
		}
	})
}
