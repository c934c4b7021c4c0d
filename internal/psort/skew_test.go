// Skewed-input property suite: the oversampling sort must deliver its
// three guarantees — global sortedness, permutation preservation, and
// the (1+1/ℓ)·n/p per-rank imbalance bound — on every transport, on
// odd and prime process counts, and on exactly the input shapes that
// break naive sample sorts: heavy duplication (splitters collide
// without origin tags), presorted and reverse-sorted runs (regular
// samples all land in one region), and Zipf-skewed keys.
package psort

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func skewTransports() map[string]transport.Transport {
	return map[string]transport.Transport{
		"shm":  transport.ShmTransport{},
		"xchg": transport.XchgTransport{},
		"tcp":  transport.TCPTransport{},
		"sim":  transport.SimTransport{},
	}
}

// distributions maps a name to a generator of n elements.
var distributions = map[string]func(n int) []float64{
	"uniform": func(n int) []float64 { return RandomData(n, 1996) },
	"zipfian": func(n int) []float64 { return ZipfData(n, 1996) },
	"presorted": func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	},
	"reverse": func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	},
	"all-equal": func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 5
		}
		return out
	},
	// Adversarial duplicates: three values tiled so every splitter
	// candidate collides with a plateau spanning many ranks.
	"adversarial-dup": func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i % 3)
		}
		return out
	},
}

// checkSorted asserts the concatenation of parts is globally sorted.
func checkSorted(t *testing.T, parts [][]float64) {
	t.Helper()
	prev := math.Inf(-1)
	for q, part := range parts {
		for i, v := range part {
			if v < prev {
				t.Fatalf("rank %d element %d: %g < predecessor %g", q, i, v, prev)
			}
			prev = v
		}
	}
}

// checkPermutation asserts the multiset of parts equals the multiset
// of data (bitwise, so NaN-safe).
func checkPermutation(t *testing.T, data []float64, parts [][]float64) {
	t.Helper()
	got := make([]uint64, 0, len(data))
	for _, part := range parts {
		for _, v := range part {
			got = append(got, math.Float64bits(v))
		}
	}
	want := make([]uint64, 0, len(data))
	for _, v := range data {
		want = append(want, math.Float64bits(v))
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d elements, want %d", len(got), len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output is not a permutation of the input (first multiset mismatch at sorted position %d)", i)
		}
	}
}

// checkImbalance asserts every rank's share obeys ImbalanceBound.
func checkImbalance(t *testing.T, n, p, l int, parts [][]float64) {
	t.Helper()
	bound := ImbalanceBound(n, p, l)
	for q, part := range parts {
		if len(part) > bound {
			t.Fatalf("rank %d holds %d elements, imbalance bound (n=%d p=%d l=%d) is %d",
				q, len(part), n, p, l, bound)
		}
	}
}

// TestSkewSuite: distributions × transports × odd/prime p, with the
// regular sampler at the default ratio.
func TestSkewSuite(t *testing.T) {
	const n = 1500
	for tname, tr := range skewTransports() {
		for dname, gen := range distributions {
			for _, p := range []int{3, 5} {
				t.Run(tname+"/"+dname+"/p="+string(rune('0'+p))+"/regular", func(t *testing.T) {
					data := gen(n)
					l := oversample(n, p)
					parts, _, st, err := sortParallel(core.Config{P: p, Transport: tr}, data, l)
					if err != nil {
						t.Fatal(err)
					}
					if st.S() != 4 {
						t.Fatalf("S = %d, want 4", st.S())
					}
					checkSorted(t, parts)
					checkPermutation(t, data, parts)
					checkImbalance(t, n, p, l, parts)
				})
			}
		}
	}
}

// TestSkewSuitePrime7: one larger prime p on the in-process transport,
// with an ℓ small enough that the sample machinery is stressed.
func TestSkewSuitePrime7(t *testing.T) {
	const n, p = 2100, 7
	for dname, gen := range distributions {
		t.Run(dname, func(t *testing.T) {
			data := gen(n)
			parts, _, _, err := sortParallel(core.Config{P: p, Transport: transport.ShmTransport{}}, data, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkSorted(t, parts)
			checkPermutation(t, data, parts)
			checkImbalance(t, n, p, 2, parts)
		})
	}
}

// TestSkewEdgePartitions: empty and n<p inputs on every transport —
// ranks with empty local runs contribute no samples, the splitter set
// may be empty or degenerate, and the routing walk must still be
// total.
func TestSkewEdgePartitions(t *testing.T) {
	for tname, tr := range skewTransports() {
		t.Run(tname, func(t *testing.T) {
			for _, data := range [][]float64{
				{},              // nothing anywhere
				{1},             // single element, p-1 empty ranks
				{3, 1, 2},       // n < p
				{2, 2, 2, 2},    // n == p, all equal
				{5, 4, 3, 2, 1}, // n barely above p, reversed
			} {
				for _, p := range []int{4, 5} {
					parts, _, _, err := sortParallel(core.Config{P: p, Transport: tr}, data, oversample(len(data), p))
					if err != nil {
						t.Fatalf("p=%d %v: %v", p, data, err)
					}
					checkSorted(t, parts)
					checkPermutation(t, data, parts)
				}
			}
		})
	}
}
