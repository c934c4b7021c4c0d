package matmult

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/transport"
)

func matricesClose(t *testing.T, got, want []float64, n int, label string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*float64(n) {
			t.Fatalf("%s: C[%d,%d] = %g, want %g", label, i/n, i%n, got[i], want[i])
		}
	}
}

func TestSequentialMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 5, 16, 33, 64} {
		a := RandomMatrix(n, 1)
		b := RandomMatrix(n, 2)
		matricesClose(t, Sequential(a, b, n), naive(a, b, n), n, "blocked kernel")
	}
}

func TestGridSide(t *testing.T) {
	for _, c := range []struct{ p, sq int }{{1, 1}, {4, 2}, {9, 3}, {16, 4}} {
		sq, err := GridSide(c.p)
		if err != nil || sq != c.sq {
			t.Errorf("GridSide(%d) = %d, %v", c.p, sq, err)
		}
	}
	for _, p := range []int{2, 3, 5, 8, 12} {
		if _, err := GridSide(p); err == nil {
			t.Errorf("GridSide(%d) should fail", p)
		}
	}
}

func TestDistributeAssembleRoundTrip(t *testing.T) {
	const n, p = 12, 9
	a := RandomMatrix(n, 3)
	// Distribute B with identity skew check: assemble C blocks laid out
	// unskewed must reproduce the source when blocks are (x, y).
	blocks := make([][]float64, p)
	sq, _ := GridSide(p)
	bn := n / sq
	for i := 0; i < p; i++ {
		blocks[i] = extractBlock(a, n, bn, i/sq, i%sq)
	}
	matricesClose(t, Assemble(blocks, n, p), a, n, "assemble")
}

func TestDistributeSkew(t *testing.T) {
	const n, p = 4, 4
	a := RandomMatrix(n, 4)
	b := RandomMatrix(n, 5)
	aBlks, bBlks, err := Distribute(a, b, n, p)
	if err != nil {
		t.Fatal(err)
	}
	// Processor i=(x,y) must hold A(x, x+y mod 2) and B(x+y mod 2, y).
	for i := 0; i < p; i++ {
		x, y := i/2, i%2
		wantA := extractBlock(a, n, 2, x, (x+y)%2)
		wantB := extractBlock(b, n, 2, (x+y)%2, y)
		for k := range wantA {
			if aBlks[i][k] != wantA[k] || bBlks[i][k] != wantB[k] {
				t.Fatalf("proc %d: skewed layout wrong", i)
			}
		}
	}
}

func TestDistributeErrors(t *testing.T) {
	a := RandomMatrix(6, 1)
	if _, _, err := Distribute(a, a, 6, 3); err == nil {
		t.Error("non-square p should fail")
	}
	if _, _, err := Distribute(a, a, 6, 16); err == nil {
		t.Error("n not divisible by sqrt(p) should fail")
	}
}

func TestPackUnpackBlock(t *testing.T) {
	blk := RandomMatrix(7, 9)
	got := unpackBlock(packBlock(blk, 7), 7)
	for i := range blk {
		if got[i] != blk[i] {
			t.Fatalf("pack/unpack mismatch at %d", i)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{8, 1}, {8, 4}, {12, 4}, {12, 9}, {16, 16}, {24, 4},
	} {
		a := RandomMatrix(tc.n, 10)
		b := RandomMatrix(tc.n, 11)
		got, st, err := Parallel(core.Config{P: tc.p, Transport: transport.ShmTransport{}}, a, b, tc.n)
		if err != nil {
			t.Fatalf("n=%d p=%d: %v", tc.n, tc.p, err)
		}
		matricesClose(t, got, naive(a, b, tc.n), tc.n, "cannon")
		sq, _ := GridSide(tc.p)
		if wantS := 2*(sq-1) + 1; st.S() != wantS {
			t.Errorf("n=%d p=%d: S = %d, want %d (paper Table C.3 pattern)", tc.n, tc.p, st.S(), wantS)
		}
	}
}

// TestPaperHAccounting checks that the packet accounting reproduces the
// paper's H formula: each communicating superstep moves one block of
// (n/√p)² 16-byte element packets, so H = 2(√p−1)·(n/√p)².
func TestPaperHAccounting(t *testing.T) {
	const n, p = 24, 4
	a := RandomMatrix(n, 30)
	b := RandomMatrix(n, 31)
	_, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	sq, _ := GridSide(p)
	bn := n / sq
	want := 2 * (sq - 1) * bn * bn
	if st.H() != want {
		t.Errorf("H = %d, want %d", st.H(), want)
	}
}

// TestPaperHFormulaMatchesTableC3 evaluates the H formula at the paper's
// configurations: n=576, p=16 must give exactly 124416.
func TestPaperHFormulaMatchesTableC3(t *testing.T) {
	cases := []struct{ n, p, wantH, wantS int }{
		{576, 16, 124416, 7},
		{576, 9, 147456, 5},
		{576, 4, 165888, 3},
		{432, 16, 69984, 7},
		{288, 9, 36864, 5},
		{144, 4, 10368, 3},
	}
	for _, c := range cases {
		sq, _ := GridSide(c.p)
		bn := c.n / sq
		h := 2 * (sq - 1) * bn * bn
		s := 2*(sq-1) + 1
		if h != c.wantH || s != c.wantS {
			t.Errorf("n=%d p=%d: (H,S) = (%d,%d), paper says (%d,%d)", c.n, c.p, h, s, c.wantH, c.wantS)
		}
	}
}

func TestQuickCannonMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, pick uint8) bool {
		ps := []int{1, 4, 9}
		p := ps[int(pick)%len(ps)]
		sq, _ := GridSide(p)
		n := sq * (int(pick/8)%3 + 1) * 2
		a := RandomMatrix(n, seed)
		b := RandomMatrix(n, seed+1)
		got, _, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, a, b, n)
		if err != nil {
			return false
		}
		want := naive(a, b, n)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// naive is the O(n³) triple loop without blocking: the oracle the
// blocked kernel and Cannon's algorithm are checked against.
func naive(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}
