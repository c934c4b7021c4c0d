package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Telemetry is the periodic metrics snapshot a cluster member pushes
// to the coordinator inside a TelemetryPush. The codec is
// name-agnostic: a frame is a sequence number, three int64 vectors and
// an address, and only the two ends (which share one build, fenced by
// HandshakeVersion) know that Counters is the sender's counter row and
// the other two are histogram buckets. Who sent the frame and in which
// epoch is the connection's identity, not the payload's.
//
// Every value is cumulative since the start of the member's current
// incarnation, which lets the coordinator difference any two frames to
// get an interval and makes a lost frame harmless for totals. Frames
// are delta-encoded against the previous frame from the same
// incarnation: the control plane is ordered, reliable TCP, so the
// decoder can carry state, and a steady-state frame is a handful of
// near-zero zigzag varints instead of ~50 fixed-width counters.
//
// Seq starts at 1 for every incarnation. A Seq==1 frame is a baseline:
// it is encoded against an all-zero previous frame and resets the
// decoder, which is how a warm-restarted rank (fresh process, fresh
// counters) re-synchronises the stream without any out-of-band signal.
type Telemetry struct {
	Seq      uint32
	Counters []int64 // the sender's counter row, in its table order
	StepDur  []int64 // superstep-duration bucket counts, overflow bucket last
	SyncWait []int64 // sync-wait bucket counts, same ladder
	// MetricsAddr is the bound address of this rank's own /metrics
	// endpoint ("" when none is served). Reported so the coordinator
	// can advertise real bound addresses instead of a port convention.
	MetricsAddr string
}

const (
	telemetryMaxVector = 64  // sanity cap on any vector's width
	telemetryMaxAddr   = 256 // sanity cap on the metrics address
)

// Telemetry stream errors. A delta frame whose Seq does not directly
// follow the previous frame means, on an ordered transport, that
// frames were lost or reordered upstream of the codec.
var (
	ErrTelemetryGap      = errors.New("wire: telemetry sequence gap")
	ErrTelemetryBaseline = errors.New("wire: telemetry delta frame before baseline")
)

// vectors lists the frame's vectors in wire order.
func (t *Telemetry) vectors() [3]*[]int64 {
	return [3]*[]int64{&t.Counters, &t.StepDur, &t.SyncWait}
}

// copyFrom deep-copies t into the receiver, reusing existing slice
// capacity so repeated encodes stay allocation-free.
func (p *Telemetry) copyFrom(t *Telemetry) {
	dst, src := p.vectors(), t.vectors()
	for i := range dst {
		*dst[i] = append((*dst[i])[:0], *src[i]...)
	}
	p.Seq, p.MetricsAddr = t.Seq, t.MetricsAddr
}

// TelemetryEncoder delta-encodes successive snapshots from one member
// incarnation. The zero value is ready to use; the first AppendEncode
// emits a baseline (Seq 1). The encoder owns its previous-frame state
// and reuses its backing storage, so steady-state encoding performs no
// allocations beyond growing dst.
type TelemetryEncoder struct{ prev Telemetry }

// AppendEncode appends the encoded frame for t to dst and returns the
// extended slice. It assigns t.Seq: one more than the previous frame's.
func (e *TelemetryEncoder) AppendEncode(dst []byte, t *Telemetry) []byte {
	t.Seq = e.prev.Seq + 1
	dst = binary.AppendUvarint(dst, uint64(t.Seq))
	cur, prev := t.vectors(), e.prev.vectors()
	for i := range cur {
		dst = binary.AppendUvarint(dst, uint64(len(*cur[i])))
		for k, v := range *cur[i] {
			dst = binary.AppendVarint(dst, v-at(*prev[i], k))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.MetricsAddr)))
	dst = append(dst, t.MetricsAddr...)
	e.prev.copyFrom(t)
	return dst
}

// at reads v[k], zero past the end: vectors may change width between
// frames, and a baseline is a delta against nothing.
func at(v []int64, k int) int64 {
	if k < len(v) {
		return v[k]
	}
	return 0
}

// TelemetryDecoder reconstructs cumulative snapshots from a delta
// stream. The zero value is ready; a baseline frame (Seq 1) resets it,
// so one decoder instance survives warm restarts of the sending rank.
type TelemetryDecoder struct{ prev Telemetry }

// Decode parses one telemetry payload and returns the reconstructed
// cumulative snapshot. The returned value does not alias decoder
// state. A delta frame that does not directly follow the previous one
// fails with ErrTelemetryGap; decoder state is left unchanged on any
// error, so the stream recovers at the next baseline. Only the
// canonical encoding is accepted (minimal varints, nothing trailing):
// whatever Decode accepts, an encoder in the same state reproduces
// byte for byte.
func (d *TelemetryDecoder) Decode(payload []byte) (Telemetry, error) {
	seq, b, err := takeUvarint(payload)
	if err != nil {
		return Telemetry{}, err
	}
	var base Telemetry
	switch {
	case seq > math.MaxUint32:
		return Telemetry{}, fmt.Errorf("wire: telemetry seq %d overflows", seq)
	case seq == 1:
	case d.prev.Seq == 0:
		return Telemetry{}, ErrTelemetryBaseline
	case seq != uint64(d.prev.Seq)+1:
		return Telemetry{}, fmt.Errorf("%w: got seq %d after %d", ErrTelemetryGap, seq, d.prev.Seq)
	default:
		base = d.prev
	}
	t := Telemetry{Seq: uint32(seq)}
	cur, prev := t.vectors(), base.vectors()
	for i := range cur {
		var n uint64
		if n, b, err = takeUvarint(b); err != nil {
			return Telemetry{}, err
		}
		if n > telemetryMaxVector {
			return Telemetry{}, fmt.Errorf("wire: telemetry vector of %d values exceeds %d", n, telemetryMaxVector)
		}
		*cur[i] = make([]int64, n)
		for k := range *cur[i] {
			var zz uint64 // a zigzag delta, as binary.AppendVarint wrote it
			if zz, b, err = takeUvarint(b); err != nil {
				return Telemetry{}, err
			}
			(*cur[i])[k] = at(*prev[i], k) + (int64(zz>>1) ^ -int64(zz&1))
		}
	}
	n, b, err := takeUvarint(b)
	if err != nil {
		return Telemetry{}, err
	}
	if n > telemetryMaxAddr || n != uint64(len(b)) {
		return Telemetry{}, fmt.Errorf("wire: telemetry metrics addr of %d bytes in a %d-byte tail", n, len(b))
	}
	t.MetricsAddr = string(b)
	d.prev.copyFrom(&t)
	return t, nil
}

// takeUvarint reads one minimally encoded varint off the front of b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, errors.New("wire: telemetry frame truncated or padded in varint")
	}
	return v, b[n:], nil
}
