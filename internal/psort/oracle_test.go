package psort

// Oracles for the fast paths: the stable comparison sort, the linear
// routing walk and the heap of run structs that sortLocal's radix sort,
// cutRun's binary search and mergeInto's index heap replaced. Every
// fast path must reproduce its oracle exactly — the sort and the merge
// bit for bit (a −0/+0 swap or two NaN payloads trading places would
// move tags, samples, splitters and H, or change a rank's share), the
// cuts index for index.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortOracle is the comparison sort sortLocal replaced.
func sortOracle[T any](cd Codec[T], data []T) {
	sort.SliceStable(data, func(i, j int) bool { return cd.Less(data[i], data[j]) })
}

// lessTagOracle is the tagged order as the walk compared it.
func lessTagOracle[T any](cd Codec[T], a, b tagged[T]) bool {
	if cd.Less(a.v, b.v) {
		return true
	}
	if cd.Less(b.v, a.v) {
		return false
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.idx < b.idx
}

// cutRunWalk is the linear merge-walk cutRun replaced.
func cutRunWalk[T any](cd Codec[T], data []T, rank int32, spl []tagged[T], p int) []int {
	cuts := make([]int, p+1)
	i := 0
	for q := 1; q < p; q++ {
		if q-1 < len(spl) {
			for i < len(data) && lessTagOracle(cd, tagged[T]{v: data[i], rank: rank, idx: int32(i)}, spl[q-1]) {
				i++
			}
		}
		cuts[q] = i
	}
	cuts[p] = len(data)
	return cuts
}

// mergeRun is one source's routed run in mergeOracle.
type mergeRun[T any] struct {
	buf  []byte
	off  int
	head T
	src  int32
}

// mergeOracle is the merge mergeInto replaced: a binary heap of
// mergeRun structs, each carrying its run's slice, ordered by (Less,
// source rank).
func mergeOracle[T any](cd Codec[T], msgs [][]byte) []T {
	esz := cd.Size()
	var runs []mergeRun[T]
	total := 0
	for _, msg := range msgs {
		body := msg[sampleHdrLen:]
		if len(body) < esz {
			continue
		}
		runs = append(runs, mergeRun[T]{
			buf:  body,
			off:  esz,
			head: cd.Decode(body),
			src:  int32(binary.LittleEndian.Uint32(msg)),
		})
		total += len(body) / esz
	}
	out := make([]T, 0, total)
	less := func(a, b *mergeRun[T]) bool {
		if cd.Less(a.head, b.head) {
			return true
		}
		if cd.Less(b.head, a.head) {
			return false
		}
		return a.src < b.src
	}
	var down func(h []mergeRun[T], i int)
	down = func(h []mergeRun[T], i int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && less(&h[l], &h[s]) {
				s = l
			}
			if r < len(h) && less(&h[r], &h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		down(runs, i)
	}
	for len(runs) > 0 {
		r := &runs[0]
		out = append(out, r.head)
		if r.off+esz <= len(r.buf) {
			r.head = cd.Decode(r.buf[r.off:])
			r.off += esz
			down(runs, 0)
		} else {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
			down(runs, 0)
		}
	}
	return out
}

// routedRuns encodes perSrc[s] as source s's routed run — the source
// rank header, then the values in stable Less order — and hands the runs
// over in a shuffled source order, so only the header can break ties.
func routedRuns[T any](cd Codec[T], perSrc [][]T, rng *rand.Rand) [][]byte {
	runs := make([][]byte, len(perSrc))
	for src, vs := range perSrc {
		vs = append([]T(nil), vs...)
		sortOracle(cd, vs)
		runs[src] = binary.LittleEndian.AppendUint32(nil, uint32(src))
		for _, v := range vs {
			runs[src] = cd.Append(runs[src], v)
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

// checkMerge asserts mergeInto equals mergeOracle on runs element for
// element, comparing ident(element), both into a destination with room
// — whose array it must reuse — and into none.
func checkMerge[T any](t *testing.T, cd Codec[T], runs [][]byte, ident func(T) any) {
	t.Helper()
	want := mergeOracle(cd, runs)
	dst := make([]T, 0, len(want)+1)
	for _, d := range [][]T{dst, nil} {
		got := mergeInto(cd, d, runs)
		if len(got) != len(want) {
			t.Fatalf("merged %d elements, oracle has %d", len(got), len(want))
		}
		for i := range want {
			if g, w := ident(got[i]), ident(want[i]); g != w {
				t.Fatalf("%d runs: element %d is %#x, oracle has %#x", len(runs), i, g, w)
			}
		}
	}
	if got := mergeInto(cd, dst, runs); len(got) > 0 && &got[0] != &dst[:1][0] {
		t.Fatal("merge allocated although the destination had room")
	}
}

// floatBits identifies a float64 by its bits, telling −0 from +0 and
// one NaN payload from another.
func floatBits(v float64) any { return math.Float64bits(v) }

// TestMergeRunsMatchesHeapOracle: the index-heap merge equals the heap
// of run structs bit for bit, for Float64Codec and RecordCodec, on the
// values whose ties only the source rank can break: ±0, NaNs with
// distinct payloads, equal keys with distinct record payloads.
func TestMergeRunsMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	negZero := math.Copysign(0, -1)
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	repeat := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	pool := []float64{negZero, 0, nan(0x7FF8000000000001), nan(0xFFF8000000000002), nan(0x7FF0000000000003),
		nan(0xFFF0000000000004), -2, -1, 1, 2, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	type floatCase struct {
		name   string
		perSrc [][]float64
	}
	cases := []floatCase{
		{"signed-zero-nan", [][]float64{
			{negZero, 0, nan(0x7FF8000000000001), 1},
			{0, nan(0xFFF8000000000002), negZero, -1},
			{nan(0x7FF0000000000003), negZero, 0, nan(0x7FF8000000000004)},
			{nan(0xFFF0000000000005), 0, negZero},
		}},
		{"all-equal", [][]float64{repeat(50, 5), repeat(50, 5), repeat(50, 5)}},
		{"empty-runs", [][]float64{{}, {3, negZero, 2}, {}, {0, 2}, {}}},
		{"all-empty", [][]float64{{}, {}, {}}},
		{"single-run", [][]float64{{3, negZero, nan(0x7FF8000000000001), 0, 1}}},
	}
	for k := 1; k <= 16; k++ {
		perSrc := make([][]float64, k)
		for s := range perSrc {
			for n := rng.Intn(40); n > 0; n-- {
				perSrc[s] = append(perSrc[s], pool[rng.Intn(len(pool))])
			}
		}
		cases = append(cases, floatCase{fmt.Sprintf("k=%d", k), perSrc})
	}
	for _, tc := range cases {
		t.Run("float/"+tc.name, func(t *testing.T) {
			checkMerge(t, Float64Codec{}, routedRuns(Float64Codec{}, tc.perSrc, rng), floatBits)
		})
	}

	// Records: one to three keys (one = all equal), random payloads, so
	// every tie between runs is visible in the output.
	keys := RandomRecords(3, 7)
	for k := 1; k <= 16; k++ {
		nkeys := 1 + k%3
		record := func() Record {
			r := RandomRecords(1, rng.Int63())[0]
			r.Key = keys[rng.Intn(nkeys)].Key
			return r
		}
		perSrc := make([][]Record, k)
		for s := range perSrc {
			if s%4 == 3 {
				continue // an empty run
			}
			for n := 1 + rng.Intn(40); n > 0; n-- {
				perSrc[s] = append(perSrc[s], record())
			}
		}
		t.Run(fmt.Sprintf("record/k=%d", k), func(t *testing.T) {
			checkMerge(t, RecordCodec{}, routedRuns(RecordCodec{}, perSrc, rng),
				func(r Record) any { return r })
		})
	}
}

// checkSortLocal asserts sortLocal on a copy of data equals the oracle
// bit for bit.
func checkSortLocal(t *testing.T, data []float64) {
	t.Helper()
	got := append([]float64(nil), data...)
	want := append([]float64(nil), data...)
	sortLocal(Float64Codec{}, got)
	sortOracle(Float64Codec{}, want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: element %d is %#016x (%v), oracle has %#016x (%v)",
				len(data), i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestSortLocalMatchesComparisonSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	tile := func(n int, vs ...float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = vs[i%len(vs)]
		}
		return out
	}
	ramp := func(n, step int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(step * i)
		}
		return out
	}
	// A large normal run with every special value sprinkled in, so the
	// equivalence classes are exercised through all eight passes.
	big := RandomData(250_000, 24)
	specials := []float64{
		negZero, 0, nan(0x7FF8000000000001), nan(0xFFF8000000000002), nan(0x7FF0000000000003),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1060,
	}
	for i := 0; i < len(big); i += 97 {
		big[i] = specials[i%len(specials)]
	}
	cases := map[string][]float64{
		"len0":        {},
		"len1":        {negZero},
		"len2":        {0, negZero},
		"len2-nan":    {nan(0xFFF8000000000009), nan(0x7FF8000000000001)},
		"signed-zero": tile(1000, negZero, 0, negZero, negZero, 0),
		"nan-payloads": tile(600, nan(0x7FF8000000000001), 1, nan(0xFFF8000000000002), -1,
			nan(0x7FF0000000000003), nan(0xFFF0000000000004)),
		"inf":        tile(300, math.Inf(1), 2, math.Inf(-1), -2, math.Inf(1)),
		"subnormal":  tile(500, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1050, negZero, 0),
		"all-equal":  tile(4096, 5),
		"presorted":  ramp(4096, 1),
		"reverse":    ramp(4096, -1),
		"zipf":       ZipfData(50_000, 3),
		"uniform":    RandomData(250_000, 7),
		"specials":   big,
		"mixed-tiny": {3, negZero, nan(0x7FF8000000000005), -1, 0, math.Inf(-1), nan(0xFFF8000000000006), 3},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkSortLocal(t, data) })
	}
}

// TestSortLocalRecordFallback: a codec without a radix sort takes the
// stable comparison fallback, which equals the oracle on a record run
// where most keys collide (so only stability decides the order).
func TestSortLocalRecordFallback(t *testing.T) {
	recs := RandomRecords(2000, 5)
	for i := range recs {
		if i%3 != 0 {
			recs[i].Key = recs[i%7].Key
		}
	}
	got := append([]Record(nil), recs...)
	want := append([]Record(nil), recs...)
	sortLocal(RecordCodec{}, got)
	sortOracle(RecordCodec{}, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs from the oracle", i)
		}
	}
}
