package lu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestSequentialReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 40} {
		a := RandomMatrix(n, int64(n))
		f, err := Sequential(a, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res := f.Reconstruct(a); res > 1e-10*float64(n) {
			t.Errorf("n=%d: PA-LU residual %g", n, res)
		}
	}
}

func TestSolve(t *testing.T) {
	const n = 24
	a := RandomMatrix(n, 3)
	f, err := Sequential(a, n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x := f.Solve(b)
	// Residual ||Ax - b||∞.
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		worst = math.Max(worst, math.Abs(s))
	}
	if worst > 1e-9 {
		t.Errorf("solve residual %g", worst)
	}
}

func TestPivotingActuallyPivots(t *testing.T) {
	// A matrix needing row swaps: zero on the leading diagonal.
	a := []float64{
		0, 1, 0,
		1, 0, 0,
		0, 0, 1,
	}
	f, err := Sequential(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Perm[0] == 0 {
		t.Error("no pivot swap on a zero leading entry")
	}
	if res := f.Reconstruct(a); res > 1e-12 {
		t.Errorf("residual %g", res)
	}
}

func TestSingularDetected(t *testing.T) {
	a := []float64{
		1, 2,
		2, 4, // rank 1
	}
	if _, err := Sequential(a, 2); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("want singular error, got %v", err)
	}
}

func TestParallelBitIdentical(t *testing.T) {
	const n = 32
	a := RandomMatrix(n, 7)
	want, err := Sequential(a, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, a, n)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.LU {
			if got.LU[i] != want.LU[i] {
				t.Fatalf("p=%d: LU[%d] = %g != %g (must be bit-identical)", p, i, got.LU[i], want.LU[i])
			}
		}
		for i := range want.Perm {
			if got.Perm[i] != want.Perm[i] {
				t.Fatalf("p=%d: Perm[%d] differs", p, i)
			}
		}
		// One broadcast superstep per column.
		if st.S() != n {
			t.Errorf("p=%d: S = %d, want %d (one broadcast per column)", p, st.S(), n)
		}
		if h := wantH(n, p); st.H() != h {
			t.Errorf("p=%d: H = %d, want %d", p, st.H(), h)
		}
	}
}

// wantH is lu's H in closed form. At step k the owner sends the pivot
// index and n−k−1 multipliers, one 8(n−k)-byte message, to each of the
// p−1 other ranks; a message of b bytes counts ⌈b/PktSize⌉ packets.
func wantH(n, p int) int {
	h := 0
	for k := 0; k < n; k++ {
		h += (p - 1) * ((8*(n-k) + core.PktSize - 1) / core.PktSize)
	}
	return h
}

func TestParallelSingular(t *testing.T) {
	a := []float64{
		1, 2, 3,
		2, 4, 6,
		0, 0, 1,
	}
	_, _, err := Parallel(core.Config{P: 2, Transport: transport.ShmTransport{}}, a, 3)
	if err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("want singular error, got %v", err)
	}
}

func TestQuickFactorization(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64, nPick, pPick uint8) bool {
		n := int(nPick)%20 + 2
		p := int(pPick)%4 + 1
		a := RandomMatrix(n, seed)
		seq, err := Sequential(a, n)
		if err != nil {
			return true // singular random draw: nothing to compare
		}
		par, _, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, a, n)
		if err != nil {
			return false
		}
		for i := range seq.LU {
			if seq.LU[i] != par.LU[i] {
				return false
			}
		}
		return seq.Reconstruct(a) < 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
