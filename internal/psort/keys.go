package psort

import (
	"encoding/binary"
	"math"
	"slices"
)

// elemBytes is the wire size of one element: a float64's IEEE bits,
// little-endian — half a BSP packet.
const elemBytes = 8

// floatKey maps v to the unsigned key the sort orders by: every NaN maps
// to 0 (below every number, and all NaNs equivalent — the sort.Float64s
// convention), −0 maps to the key of +0, and every other value gets the
// usual sign-flip (set the sign bit of a positive, complement a
// negative). Equal keys are ties, which origin (rank, index) tags break.
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

// The local sort's digits: 11 bits make six passes over a 64-bit key
// where bytes make eight, and six 2¹¹-entry count tables still fit in
// one stack frame.
const (
	radixBits   = 11
	radixDigits = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// sortLocal sorts data by floatKey, stably: ties keep input order, which
// matches the tagged order because local indices are assigned after the
// sort. It is an LSD radix sort: one pre-pass counts all six digits, then
// one scatter pass per digit ping-pongs between data and a scratch run,
// skipping every digit that is the same for all elements.
func sortLocal(data []float64) {
	n := len(data)
	if n < 2 {
		return
	}
	var count [radixDigits][1 << radixBits]uint32
	for _, v := range data {
		k := floatKey(v)
		for d := range count {
			count[d][k>>(radixBits*d)&radixMask]++
		}
	}
	src, dst := data, make([]float64, n)
	for d := range count {
		c := &count[d]
		shift := radixBits * d
		if int(c[floatKey(data[0])>>shift&radixMask]) == n {
			continue
		}
		var off uint32
		for i, k := range c {
			c[i] = off
			off += k
		}
		for _, v := range src {
			b := floatKey(v) >> shift & radixMask
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// head is one routed run's place in mergeInto's heap: its current element
// and that element's key, the byte offset of the next element, the run's
// index and the source rank from its header. No field is a pointer, so
// moving heads around the heap costs no GC write barrier.
type head struct {
	key uint64
	v   float64
	off int
	run int32
	src uint32
}

// before is the heap order, (key, source rank): a strict total order
// because each source contributes at most one run, so the merge does not
// depend on the order in which the transport delivered the runs.
func (a *head) before(b *head) bool {
	return a.key < b.key || a.key == b.key && a.src < b.src
}

// mergeInto merges routed runs — each a source-rank header and a sorted
// body — into dst's array, or a new one when they do not fit, and returns
// the merged share.
func mergeInto(dst []float64, runs [][]byte) []float64 {
	total := 0
	for _, r := range runs {
		total += max(len(r)-sampleHdrLen, 0) / elemBytes
	}
	if cap(dst) < total {
		dst = make([]float64, total)
	}
	dst = dst[:total]
	h := make([]head, 0, len(runs))
	for i, r := range runs {
		if len(r) < sampleHdrLen+elemBytes {
			continue
		}
		v := loadFloat(r[sampleHdrLen:])
		h = append(h, head{key: floatKey(v), v: v, off: sampleHdrLen + elemBytes, run: int32(i),
			src: binary.LittleEndian.Uint32(r)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := range dst {
		t := &h[0]
		dst[i] = t.v
		if body := runs[t.run]; t.off+elemBytes <= len(body) {
			t.v = loadFloat(body[t.off:])
			t.key = floatKey(t.v)
			t.off += elemBytes
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return dst
}

// siftDown restores the min-heap property of h below position i.
func siftDown(h []head, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].before(&h[s]) {
			s = l
		}
		if r < len(h) && h[r].before(&h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// loadFloat reads the element at the front of b.
func loadFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// appendFloats appends vs to b in the wire encoding, growing b at most
// once.
func appendFloats(b []byte, vs []float64) []byte {
	b = slices.Grow(b, elemBytes*len(vs))
	out := b[len(b) : len(b)+elemBytes*len(vs)]
	for _, v := range vs {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[elemBytes:]
	}
	return b[:len(b)+elemBytes*len(vs)]
}
