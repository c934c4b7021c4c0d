package psort

// Oracles for the fast paths: the stable comparison sort and the
// linear routing walk that sortLocal's radix sort and cutRun's binary
// search replaced. Both fast paths must reproduce them exactly — the
// sort bit for bit (a −0/+0 swap or two NaN payloads trading places
// would move tags, samples, splitters and H), the cuts index for index.

import (
	"math"
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
