package psort

// FuzzSampleSort drives the whole sort end to end on fuzz-shaped inputs
// and, separately, the routing walk against adversarial splitter sets.
// The invariants are exactly the skew suite's, but over arbitrary bit
// patterns (including NaNs, infinities, denormals and duplicate runs)
// and arbitrary (p, ℓ) combinations:
//
//   - the output is globally sorted in the float order,
//   - the output is a bitwise permutation of the input,
//   - every rank's share obeys ImbalanceBound,
//   - the shares equal the stable sort of the input bit for bit,
//   - the local sort equals the stable comparison sort bit for bit,
//   - the final merge equals the heap of run structs bit for bit,
//   - splitter selection is monotone in the tagged order, and
//   - the routing cut is total: monotone cuts covering [0, n] exactly,
//     whatever (possibly duplicate-heavy) splitter set the root picked,
//     and equal to the linear walk's.
//
// Run `make fuzz` for the brief CI pass or `go test -fuzz=FuzzSampleSort
// ./internal/psort/` to explore further.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// fuzzMaxN caps the decoded input so one fuzz execution stays cheap.
const fuzzMaxN = 2048

// fuzzData decodes raw as little-endian float64 bit patterns.
func fuzzData(raw []byte) []float64 {
	n := min(len(raw)/8, fuzzMaxN)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

func FuzzSampleSort(f *testing.F) {
	le := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Seed corpus: the shapes that historically break sample sorts.
	f.Add(uint8(3), uint8(2), []byte{})
	f.Add(uint8(4), uint8(0), le(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5))
	f.Add(uint8(5), uint8(1), le(9, 8, 7, 6, 5, 4, 3, 2, 1, 0))
	f.Add(uint8(2), uint8(3), le(math.NaN(), 0, math.NaN(), math.Inf(1), math.Inf(-1), 0))
	f.Add(uint8(6), uint8(0), le(0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2))
	f.Add(uint8(3), uint8(2), le(math.SmallestNonzeroFloat64, -0.0, 0.0, math.MaxFloat64))
	// Shapes only a bitwise comparison against the oracle can see: signed
	// zeros (note -0.0 above is a constant +0) and NaN payloads.
	f.Add(uint8(1), uint8(1), le(negZero, 0, negZero, 1, negZero, 0))
	f.Add(uint8(2), uint8(2), le(math.Float64frombits(0x7FF8000000000001), 2,
		math.Float64frombits(0xFFF8000000000002), negZero, math.Float64frombits(0x7FF8000000000001), 0))

	f.Fuzz(func(t *testing.T, pb, overb uint8, raw []byte) {
		p := 2 + int(pb%5)
		data := fuzzData(raw)
		n := len(data)
		l := int(overb % 5) // 0 exercises DefaultRatio
		if l == 0 {
			l = oversample(n, p)
		}

		parts, _, st, err := sortParallel(core.Config{P: p, Transport: transport.ShmTransport{}}, data, l)
		if err != nil {
			t.Fatal(err)
		}
		if st.S() != 4 {
			t.Fatalf("S = %d, want 4", st.S())
		}

		// Sortedness in the float order and the imbalance bound.
		bound := ImbalanceBound(n, p, l)
		var prev float64
		first := true
		for q, part := range parts {
			if len(part) > bound {
				t.Fatalf("rank %d holds %d elements, bound (n=%d p=%d l=%d) is %d",
					q, len(part), n, p, l, bound)
			}
			for i, v := range part {
				if !first && lessOracle(v, prev) {
					t.Fatalf("rank %d element %d: %v sorts before predecessor %v", q, i, v, prev)
				}
				prev, first = v, false
			}
		}
		checkPermutation(t, data, parts)
		// The permutation check cannot see a −0/+0 swap or two NaN
		// payloads trading places; bitwise comparisons can. Ties leave
		// the merge in (rank, index) tag order, so the shares are the
		// stable sort of the whole input; the local sort and the final
		// merge must equal the code they replaced (the merge on p source
		// runs handed over in an order shuffled by the fuzz bytes).
		stable := append([]float64(nil), data...)
		sortOracle(stable)
		if !slices.EqualFunc(slices.Concat(parts...), stable, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatal("the shares differ from the stable sort of the input")
		}
		checkSortLocal(t, data)
		perSrc := make([][]float64, p)
		for q := range perSrc {
			perSrc[q] = chunk(data, p, q)
		}
		checkMerge(t, routedRuns(perSrc, rand.New(rand.NewSource(int64(pb)<<8|int64(overb)))), false)

		// Routing totality against an adversarial splitter set: build
		// p−1 splitters straight from fuzz-chosen positions (duplicates
		// and all), sort them into the tagged order the root guarantees,
		// and require the cuts to be monotone, to cover [0, n] with no
		// element unrouted — whatever the splitters were — and to equal
		// the linear walk's. Splitter ranks 0–2 against run ranks 0–2
		// make splitters that tie an element's value and differ only in
		// the (rank, idx) tag fall on both sides of it.
		if n > 0 {
			sorted := append([]float64(nil), data...)
			sortLocal(sorted, nil)
			spl := make([]tagged, 0, p-1)
			for j := 1; j < p; j++ {
				pos := (int(pb)*j + int(overb) + len(raw)*j) % n
				spl = append(spl, tagged{v: sorted[pos], rank: int32(j % 3), idx: int32(pos + j%2)})
			}
			slices.SortFunc(spl, cmpTag)
			for j := 1; j < len(spl); j++ {
				if lessTagOracle(spl[j], spl[j-1]) {
					t.Fatalf("splitters not monotone in the tagged order at %d", j)
				}
			}
			for rank := int32(0); rank < 3; rank++ {
				cuts := cutRun(sorted, rank, spl, p)
				if cuts[0] != 0 || cuts[p] != n {
					t.Fatalf("cuts do not cover [0, %d]: %v", n, cuts)
				}
				for q := 1; q <= p; q++ {
					if cuts[q] < cuts[q-1] {
						t.Fatalf("cuts not monotone: %v", cuts)
					}
				}
				if want := cutRunWalk(sorted, rank, spl, p); !slices.Equal(cuts, want) {
					t.Fatalf("rank %d: binary-search cuts %v, linear walk %v", rank, cuts, want)
				}
			}
		}
	})
}
