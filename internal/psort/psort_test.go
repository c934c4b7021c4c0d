package psort

import (
	"math"
	"slices"
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
// that exist — at small n or a large ℓ the bound exceeds n — and it is
// the rank's own window of the slab, holding the rank's input.
func TestRunBufferCapacity(t *testing.T) {
	for _, tc := range []struct{ n, p, l int }{
		{10, 4, 1}, {10, 4, 128}, {3, 4, 2}, {0, 4, 1}, {1 << 16, 4, 128}, {1000, 3, 8}, {7, 1, 1},
	} {
		data := RandomData(tc.n, 1)
		bound := ImbalanceBound(tc.n, tc.p, tc.l)
		w := runWindow(tc.n, tc.p, tc.l)
		slab := make([]float64, tc.p*w)
		for q := 0; q < tc.p; q++ {
			local := chunk(data, tc.p, q)
			buf := runBuffer(slab, w, q, local)
			if len(buf) != len(local) || cap(buf) > tc.n || cap(buf) < min(tc.n, bound) {
				t.Errorf("n=%d p=%d l=%d rank %d: len %d cap %d, want len %d and cap in [min(n, %d), n]",
					tc.n, tc.p, tc.l, q, len(buf), cap(buf), len(local), bound)
			}
			if len(local) > 0 && (&buf[0] != &slab[q*w] || !slices.Equal(buf, local)) {
				t.Errorf("n=%d p=%d l=%d rank %d: run buffer is not window %d of the slab holding the input", tc.n, tc.p, tc.l, q, q)
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

// TestGatherInPlace: a fault-free sort's shares sit at the starts of
// their slab windows, so gather returns the slab's prefix holding the
// stable sort of the input; a share outside the slab, as after a
// restore, or one longer than its window sends every share to a new
// array with the same contents.
func TestGatherInPlace(t *testing.T) {
	data := RandomData(20000, 9)
	data[3], data[5] = negZero, nan(0x7FF8000000000001)
	want := append([]float64(nil), data...)
	sortOracle(want)
	bitsEqual := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	parts, slab, _, err := sortParallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, data, oversample(len(data), 4))
	if err != nil {
		t.Fatal(err)
	}
	w := len(slab) / len(parts)
	for q, part := range parts {
		if len(part) > 0 && &part[0] != &slab[q*w] {
			t.Fatalf("rank %d's share is not at the start of its window", q)
		}
	}
	restored := slices.Clone(parts[2])
	got := gather(slab, slices.Clone(parts))
	if &got[0] != &slab[0] || !slices.EqualFunc(got, want, bitsEqual) {
		t.Fatal("a fault-free gather is not the slab's prefix holding the stable sort")
	}

	// layout lays the stable sort out as shares of the given lengths in
	// a slab of windows of w elements, share q at the start of window q,
	// and returns what gather must return.
	layout := func(w int, lens ...int) ([]float64, [][]float64, []float64) {
		slab := make([]float64, len(lens)*w)
		shares := make([][]float64, len(lens))
		off := 0
		for q, n := range lens {
			shares[q] = slab[q*w : q*w+n]
			copy(shares[q], want[off:off+n])
			off += n
		}
		return slab, shares, want[:off]
	}
	slab, shares, cat := layout(8, 3, 8, 0, 5)
	if got := gather(slab, shares); &got[0] != &slab[0] || !slices.EqualFunc(got, cat, bitsEqual) {
		t.Fatal("shares at their windows' starts: want the slab's prefix holding them in rank order")
	}
	lens := make([]int, len(parts))
	for q, part := range parts {
		lens[q] = len(part)
	}
	slab, shares, cat = layout(w, lens...)
	shares[2] = restored
	if got := gather(slab, shares); &got[0] == &slab[0] || !slices.EqualFunc(got, cat, bitsEqual) {
		t.Fatal("a share outside the slab: want a new array holding the shares in rank order")
	}
	// Share 0 runs 3 elements into window 1, whose own share is empty.
	slab, shares, cat = layout(8, 11, 0, 5, 8)
	if got := gather(slab, shares); &got[0] == &slab[0] || !slices.EqualFunc(got, cat, bitsEqual) {
		t.Fatal("a share longer than its window: want a new array holding the shares in rank order")
	}
}
