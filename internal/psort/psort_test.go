package psort

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestParallelSorts(t *testing.T) {
	data := RandomData(5000, 1)
	want := append([]float64(nil), data...)
	sort.Float64s(want)
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, data)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: length %d, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: element %d = %g, want %g", p, i, got[i], want[i])
			}
		}
		if st.S() != 4 {
			t.Errorf("p=%d: S = %d, want 4 (sample, condense, splitters, redistribute)", p, st.S())
		}
	}
}

func TestEdgeCases(t *testing.T) {
	cfg := core.Config{P: 4, Transport: transport.ShmTransport{}}
	for _, data := range [][]float64{
		{},
		{1},
		{2, 1},
		{5, 5, 5, 5, 5, 5, 5, 5}, // all equal: splitters coincide
		{3, 1, 2},                // fewer elements than processes
	} {
		got, _, err := Parallel(cfg, data)
		if err != nil {
			t.Fatalf("%v: %v", data, err)
		}
		if !sort.Float64sAreSorted(got) || len(got) != len(data) {
			t.Fatalf("%v -> %v", data, got)
		}
	}
}

// TestRunBufferCapacity: a rank's run buffer has room for the largest
// share ImbalanceBound allows, but never for more than the n elements
// that exist — at small n or a large ℓ the bound exceeds n.
func TestRunBufferCapacity(t *testing.T) {
	for _, tc := range []struct{ n, p, l int }{
		{10, 4, 1}, {10, 4, 128}, {3, 4, 2}, {0, 4, 1}, {1 << 16, 4, 128}, {1000, 3, 8},
	} {
		data := RandomData(tc.n, 1)
		bound := ImbalanceBound(tc.n, tc.p, tc.l)
		for q := 0; q < tc.p; q++ {
			local := chunk(data, tc.p, q)
			buf := runBuffer(local, tc.n, tc.p, tc.l)
			if len(buf) != len(local) || cap(buf) > tc.n || cap(buf) < min(tc.n, bound) {
				t.Errorf("n=%d p=%d l=%d rank %d: len %d cap %d, want len %d and cap in [min(n, %d), n]",
					tc.n, tc.p, tc.l, q, len(buf), cap(buf), len(local), bound)
			}
		}
	}
}

func TestQuickSortsCorrectly(t *testing.T) {
	f := func(data []float64, pPick uint8) bool {
		p := int(pPick)%4 + 1
		got, _, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, data)
		if err != nil {
			return false
		}
		want := append([]float64(nil), data...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			// NaNs break ordering; quick can generate them. Compare
			// bitwise multisets via sorted equality, tolerating NaN at
			// matching positions.
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
