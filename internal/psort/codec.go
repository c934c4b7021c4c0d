package psort

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
)

// Codec describes one fixed-size element type to the sorter. The sort
// is generic over the element: anything with a fixed wire encoding and
// a strict weak ordering can ride the stage machine. Ties under Less
// are broken internally by origin (rank, index) tags, so Less does not
// have to be a total order on payloads — duplicate-heavy and all-equal
// inputs keep the deterministic imbalance bound.
type Codec[T any] interface {
	// Size is the fixed encoded size of one element in bytes.
	Size() int
	// Append appends the encoding of v to dst and returns the extended
	// slice.
	Append(dst []byte, v T) []byte
	// Decode reads one element from the first Size() bytes of b.
	Decode(b []byte) T
	// Less orders elements (strict weak ordering).
	Less(a, b T) bool
}

// Float64Codec sorts float64 values; 8 bytes each, half a BSP packet.
type Float64Codec struct{}

// Size implements Codec.
func (Float64Codec) Size() int { return 8 }

// Append implements Codec.
func (Float64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// Decode implements Codec.
func (Float64Codec) Decode(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Less implements Codec. NaNs order before every number (the
// sort.Float64s convention), which keeps the ordering a strict weak
// ordering even on inputs that contain them.
func (Float64Codec) Less(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// floatKey maps v to an unsigned key whose order is exactly Less's:
// every NaN maps to 0 (below every number, and all NaNs equivalent),
// −0 maps to the key of +0, and every other value gets the usual
// sign-flip (set the sign bit of a positive, complement a negative).
// Equal keys are exactly Less's equivalence classes, so a stable sort
// by key is bit-identical to a stable sort by Less.
func floatKey(v float64) uint64 {
	if v != v {
		return 0
	}
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	// Branchless flip: a sign branch here is mispredicted half the time
	// on mixed-sign data, and it runs once per element per pass.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortStable sorts data in Less's order, stably, with an LSD radix sort
// on floatKey: one pre-pass counts all eight byte digits, then one
// scatter pass per digit ping-pongs between data and tmp (len(tmp) ≥
// len(data)), skipping every digit that is the same for all elements.
func (Float64Codec) sortStable(data, tmp []float64) {
	n := len(data)
	if n < 2 {
		return
	}
	var count [8][256]int
	for _, v := range data {
		k := floatKey(v)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	src, dst := data, tmp[:n]
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if c[byte(floatKey(data[0])>>shift)] == n {
			continue
		}
		off := 0
		for i, k := range c {
			c[i] = off
			off += k
		}
		for _, v := range src {
			b := byte(floatKey(v) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// Record is a byte-comparable fixed-size element with a realistic
// payload: a 10-byte sort key and 6 bytes of opaque value — one
// 16-byte BSP packet per record, the classic sort-benchmark layout.
type Record struct {
	Key [10]byte
	Val [6]byte
}

// RecordCodec sorts Records by lexicographic key comparison.
type RecordCodec struct{}

// Size implements Codec.
func (RecordCodec) Size() int { return 16 }

// Append implements Codec.
func (RecordCodec) Append(dst []byte, r Record) []byte {
	dst = append(dst, r.Key[:]...)
	return append(dst, r.Val[:]...)
}

// Decode implements Codec.
func (RecordCodec) Decode(b []byte) Record {
	var r Record
	copy(r.Key[:], b[:10])
	copy(r.Val[:], b[10:16])
	return r
}

// Less implements Codec: lexicographic on the key bytes only; the
// value tags along.
func (RecordCodec) Less(a, b Record) bool {
	return bytes.Compare(a.Key[:], b.Key[:]) < 0
}

// RandomData returns n deterministic pseudo-random values.
func RandomData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// ZipfData returns n deterministic Zipf-distributed values — the
// skewed, duplicate-heavy workload that breaks naive sample sorts: a
// handful of head values dominate, so splitters chosen without origin
// tags would funnel whole equal-runs onto one rank.
func ZipfData(n int, seed int64) []float64 {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	imax := uint64(n / 8)
	if imax < 16 {
		imax = 16
	}
	z := rand.NewZipf(rng, 1.2, 1, imax)
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(z.Uint64())
	}
	return out
}

// RandomRecords returns n deterministic records with pseudo-random
// keys.
func RandomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		rng.Read(out[i].Key[:])
		rng.Read(out[i].Val[:])
	}
	return out
}
