package psort

import (
	"encoding/binary"
	"math"
	"slices"
)

// elemBytes is the wire size of one element: a float64's IEEE bits,
// little-endian — half a BSP packet.
const elemBytes = 8

// floatKey maps the IEEE bits b of a float64 to the unsigned key the sort
// orders by: every NaN maps to 0 (below every number, and all NaNs
// equivalent — the sort.Float64s convention), −0 maps to the key of +0,
// and every other value gets the usual sign-flip (set the sign bit of a
// positive, complement a negative). Equal keys are ties, which origin
// (rank, index) tags break. It takes bits, not a float64, so the merge
// can select between two elements on integers alone.
func floatKey(b uint64) uint64 {
	if b&^(1<<63)-1 >= 0x7FF0<<48 {
		if b<<1 == 0 {
			return 1 << 63
		}
		return 0
	}
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
// one scatter pass per digit ping-pongs between data and scratch's array
// (or a new one when it is too short), skipping every digit that is the
// same for all elements.
func sortLocal(data, scratch []float64) {
	n := len(data)
	if n < 2 {
		return
	}
	var count [radixDigits][1 << radixBits]uint32
	for _, v := range data {
		k := floatKey(math.Float64bits(v))
		for d := range count {
			count[d][k>>(radixBits*d)&radixMask]++
		}
	}
	src, dst := data, fit(scratch, n)
	for d := range count {
		c := &count[d]
		shift := radixBits * d
		if int(c[floatKey(math.Float64bits(data[0]))>>shift&radixMask]) == n {
			continue
		}
		var off uint32
		for i, k := range c {
			c[i] = off
			off += k
		}
		for _, v := range src {
			b := floatKey(math.Float64bits(v)) >> shift & radixMask
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// fit returns buf resliced to n elements, or a new slice when buf's
// array is too short.
func fit(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// mergeInto merges routed runs — each a source-rank header and a sorted
// body — into dst's array and returns the merged share. It is a merge
// tree: the non-empty runs, ordered by source rank, are merged in
// adjacent pairs over ⌈log₂ k⌉ levels. The first level reads the wire
// runs in place; later levels ping-pong between scratch's array and
// dst's, and the first level's target is chosen so that the last lands
// in dst. A run without a partner is carried to the next level with one
// copy (on the first level, one decode — all a single run needs). A tie
// takes the left run, whose source is lower, so the share is ordered by
// (key, source rank) whatever order the runs were delivered in. dst and
// scratch are replaced by new arrays only when they are too short, as
// after a restore.
func mergeInto(dst, scratch []float64, runs [][]byte) []float64 {
	runs = orderRuns(runs)
	k, total := len(runs), span(runs)
	dst = fit(dst, total)
	// Each level merges adjacent pairs of w-run groups from a into b; a
	// single run still takes one level, its decode.
	levels := 1
	for 1<<levels < k {
		levels++
	}
	a, b := scratch, dst
	if levels%2 == 0 {
		a, b = dst, scratch
	}
	for w := 1; w < 1<<levels; w *= 2 {
		b = fit(b, total)
		o := 0
		for i := 0; i < k; i += 2 * w {
			x, y := runs[i:min(i+w, k)], runs[min(i+w, k):min(i+2*w, k)]
			nx, n := span(x), span(x)+span(y)
			switch {
			case w == 1 && len(y) == 0:
				decodeFloats(b[o:o+n], body(x[0]))
			case w == 1:
				mergeWire(b[o:o+n], body(x[0]), body(y[0]))
			case len(y) == 0:
				copy(b[o:o+n], a[o:o+n])
			default:
				mergeFloats(b[o:o+n], a[o:o+nx], a[o+nx:o+n])
			}
			o += n
		}
		a, b = b, a
	}
	return dst
}

// orderRuns permutes runs in place — an insertion sort by source rank,
// empty runs last — and returns the non-empty ones.
func orderRuns(runs [][]byte) [][]byte {
	k := 0
	for i, r := range runs {
		if len(r) < sampleHdrLen+elemBytes {
			continue
		}
		src := binary.LittleEndian.Uint32(r)
		j := k
		for j > 0 && binary.LittleEndian.Uint32(runs[j-1]) > src {
			j--
		}
		runs[i] = runs[k]
		copy(runs[j+1:k+1], runs[j:k])
		runs[j] = r
		k++
	}
	return runs[:k]
}

// body returns run r's elements: the bytes after its header, cut to
// whole elements.
func body(r []byte) []byte {
	return r[sampleHdrLen : sampleHdrLen+(len(r)-sampleHdrLen)/elemBytes*elemBytes]
}

// span is the number of elements in runs.
func span(runs [][]byte) int {
	n := 0
	for _, r := range runs {
		n += (len(r) - sampleHdrLen) / elemBytes
	}
	return n
}

// mergeWire merges the wire-encoded runs x and y into out, which holds
// exactly their elements, taking x's element on a tie. It merges from
// both ends at once — the smallest remaining element to the front, the
// largest to the back — so each step carries two independent load,
// compare and advance chains, and each select is on keys and bits, so
// it compiles to conditional moves, not to a branch that mispredicts
// on every other element of interleaved runs. Both picks come from the
// same remaining elements, and they differ while both runs have one:
// the front keeps x on a tie, the back y. The indices count elements
// and every load is an 8-byte window of the unmoved run, so the loop
// runs close to mergeFloats's speed; re-slicing the runs at every step
// (x[i:]) took about twice as long.
func mergeWire(out []float64, x, y []byte) {
	le := binary.LittleEndian
	i, j, ex, ey := 0, 0, len(x)/elemBytes, len(y)/elemBytes
	for i < ex && j < ey {
		a, b := le.Uint64(x[8*i:8*i+8]), le.Uint64(y[8*j:8*j+8])
		v, t := a, 0
		if floatKey(b) < floatKey(a) {
			v, t = b, 1
		}
		out[i+j] = math.Float64frombits(v)
		i += 1 - t
		j += t
		a, b = le.Uint64(x[8*ex-8:8*ex]), le.Uint64(y[8*ey-8:8*ey])
		v, t = b, 1
		if floatKey(a) > floatKey(b) {
			v, t = a, 0
		}
		out[ex+ey-1] = math.Float64frombits(v)
		ex -= 1 - t
		ey -= t
	}
	decodeFloats(out[i+j:], x[8*i:8*ex])
	decodeFloats(out[ex+j:], y[8*j:8*ey])
}

// mergeFloats merges the runs x and y into out, which holds exactly their
// elements, taking x's element on a tie; it is mergeWire on floats.
func mergeFloats(out, x, y []float64) {
	i, j, ex, ey := 0, 0, len(x), len(y)
	for i < ex && j < ey {
		a, b := math.Float64bits(x[i]), math.Float64bits(y[j])
		v, t := a, 0
		if floatKey(b) < floatKey(a) {
			v, t = b, 1
		}
		out[i+j] = math.Float64frombits(v)
		i += 1 - t
		j += t
		a, b = math.Float64bits(x[ex-1]), math.Float64bits(y[ey-1])
		v, t = b, 1
		if floatKey(a) > floatKey(b) {
			v, t = a, 0
		}
		out[ex+ey-1] = math.Float64frombits(v)
		ex -= 1 - t
		ey -= t
	}
	copy(out[i+j:], x[i:ex])
	copy(out[ex+j:], y[j:ey])
}

// decodeFloats decodes the wire-encoded elements of b into out.
func decodeFloats(out []float64, b []byte) {
	for i := range len(b) / elemBytes {
		out[i] = loadFloat(b[i*elemBytes:])
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
