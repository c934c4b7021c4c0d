package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Telemetry is the metrics snapshot a cluster member's Ping carries as
// its tail. The codec is name-agnostic: a tail is the recorder epoch,
// three int64 vectors and an address, and only the two ends (which
// share one build, fenced by HandshakeVersion) know that Counters is
// the sender's counter row and the other two are histogram buckets.
// Who sent the tail and in which gang epoch is the beat's identity,
// not the payload's.
//
// Every value is absolute — cumulative since the recorder's epoch — so
// each tail decodes on its own and a lost beat costs nothing but
// freshness. Epoch names the counting: a tail with a different Epoch
// comes from a new recorder, whose counters restarted from zero.
type Telemetry struct {
	Epoch    int64   // the recorder's epoch, unix nanoseconds
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

// vectors lists the tail's vectors in wire order.
func (t *Telemetry) vectors() [3]*[]int64 {
	return [3]*[]int64{&t.Counters, &t.StepDur, &t.SyncWait}
}

// AppendTelemetry appends t's encoding to dst: the epoch, each vector
// as a length and zigzag varints, then the address. It allocates
// nothing beyond growing dst.
func AppendTelemetry(dst []byte, t *Telemetry) []byte {
	dst = binary.AppendVarint(dst, t.Epoch)
	for _, v := range t.vectors() {
		dst = binary.AppendUvarint(dst, uint64(len(*v)))
		for _, x := range *v {
			dst = binary.AppendVarint(dst, x)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.MetricsAddr)))
	return append(dst, t.MetricsAddr...)
}

// DecodeTelemetry parses one tail. The result does not alias b. Only
// the canonical encoding is accepted (minimal varints, nothing
// trailing), so whatever it accepts, AppendTelemetry reproduces byte
// for byte.
func DecodeTelemetry(b []byte) (Telemetry, error) {
	var t Telemetry
	var err error
	if t.Epoch, b, err = takeVarint(b); err != nil {
		return Telemetry{}, err
	}
	for _, v := range t.vectors() {
		var n uint64
		if n, b, err = takeUvarint(b); err != nil {
			return Telemetry{}, err
		}
		if n > telemetryMaxVector {
			return Telemetry{}, fmt.Errorf("wire: telemetry vector of %d values exceeds %d", n, telemetryMaxVector)
		}
		*v = make([]int64, n)
		for k := range *v {
			if (*v)[k], b, err = takeVarint(b); err != nil {
				return Telemetry{}, err
			}
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
	return t, nil
}

// takeUvarint reads one minimally encoded varint off the front of b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, errors.New("wire: telemetry tail truncated or padded in varint")
	}
	return v, b[n:], nil
}

// takeVarint reads one minimally encoded zigzag varint, as
// binary.AppendVarint writes it.
func takeVarint(b []byte) (int64, []byte, error) {
	zz, b, err := takeUvarint(b)
	return int64(zz>>1) ^ -int64(zz&1), b, err
}
