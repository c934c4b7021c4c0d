package ocean

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestCheckGrid(t *testing.T) {
	for _, size := range []int{6, 10, 18, 66, 130, 258, 514} {
		if _, err := checkGrid(size); err != nil {
			t.Errorf("size %d should be valid: %v", size, err)
		}
	}
	for _, size := range []int{0, 5, 7, 65, 100} {
		if _, err := checkGrid(size); err == nil {
			t.Errorf("size %d should be rejected", size)
		}
	}
}

func TestRowRangePartition(t *testing.T) {
	for _, m := range []int{4, 8, 64, 127, 128} {
		for _, p := range []int{1, 2, 3, 4, 8, 16, 31} {
			covered := 0
			for q := 0; q < p; q++ {
				lo, hi := rowRange(m, p, q)
				covered += hi - lo
				for r := lo; r < hi; r++ {
					if got := ownerOfRow(m, p, r); got != q {
						t.Fatalf("m=%d p=%d: ownerOfRow(%d) = %d, want %d", m, p, r, got, q)
					}
				}
			}
			if covered != m {
				t.Fatalf("m=%d p=%d: rows covered %d", m, p, covered)
			}
		}
	}
}

// TestStripsNest: at every level of every hierarchy the strips cover
// the rows once, owner agrees with rows, and both fine rows of a coarse
// row belong to that row's owner — what lets restriction read no halo.
func TestStripsNest(t *testing.T) {
	for _, m := range []int{4, 8, 16, 32, 64, 128, 256} {
		for p := 1; p <= 17; p++ {
			st := newStrips(m, p)
			for lm := m; lm >= st.base; lm /= 2 {
				covered := 0
				for q := 0; q < p; q++ {
					lo, hi := st.rows(lm, q)
					covered += hi - lo
					for r := lo; r < hi; r++ {
						if got := st.owner(lm, r); got != q {
							t.Fatalf("m=%d p=%d level %d: owner(%d) = %d, want %d", m, p, lm, r, got, q)
						}
					}
				}
				if covered != lm {
					t.Fatalf("m=%d p=%d level %d: rows covered %d", m, p, lm, covered)
				}
				if lm == m {
					continue
				}
				for R := 1; R <= lm; R++ {
					q := st.owner(lm, R)
					if st.owner(2*lm, 2*R-1) != q || st.owner(2*lm, 2*R) != q {
						t.Fatalf("m=%d p=%d: coarse row %d of level %d is rank %d's, its fine rows are not", m, p, R, lm, q)
					}
				}
			}
		}
	}
}

func TestSolverSolvesPoisson(t *testing.T) {
	// Manufactured solution: u = sin(πx)sin(πy) has ∇²u = -2π²u.
	// Sampling f at the cell centres, the 5-point operator's
	// eigenvalue for this mode is −(8/h²)sin²(πh/2) ≈ −2π²(1 − π²h²/12),
	// so the converged solution is off by a factor 1 + π²h²/12 ≈
	// 1 + 0.82·h²; the reflected-ghost wall is second-order too and adds
	// nothing of lower order. 1·h² leaves room for the 1e-8 residual.
	for _, m := range []int{32, 64, 128} {
		sol := newSolver(seqMachine{}, m)
		sol.tol = 1e-8
		h := 1 / float64(m)
		at := func(i int) float64 { return sinPi((float64(i) - 0.5) * h) }
		lv := sol.levels[0]
		for r := 1; r <= m; r++ {
			fr := lv.f.row(r)
			for c := 1; c <= m; c++ {
				fr[c] = -2 * math.Pi * math.Pi * at(r) * at(c)
			}
		}
		cycles, ok := sol.Solve()
		if cycles == 0 || !ok {
			t.Fatalf("m=%d: solver did not converge properly: %d cycles, converged=%v", m, cycles, ok)
		}
		var worst float64
		for r := 1; r <= m; r++ {
			ur := lv.u.row(r)
			for c := 1; c <= m; c++ {
				worst = math.Max(worst, math.Abs(ur[c]-at(r)*at(c)))
			}
		}
		if worst > h*h {
			t.Errorf("m=%d: worst error vs manufactured solution %g, want ≤ 1·h² = %g", m, worst, h*h)
		}
	}
}

// roughRHS loads a right-hand side with energy at every wavelength —
// a deterministic ±1 hash per cell — so no multigrid level gets an easy
// ride.
func roughRHS(lv *level) {
	for r := 1; r <= lv.m; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= lv.m; c++ {
			fr[c] = float64(int(uint32(r*7919+c*104729)*2654435761>>31))*2 - 1
		}
	}
}

// TestVCycleConvergenceFactor is the oracle for the hierarchy's
// consistency: with operator, restriction and prolongation all built on
// the same cell-centred grid, one V(2,1) cycle cuts the residual by a
// factor that does not depend on m. The vertex/cell-centred mix this
// replaced measured 0.44 / 0.66 / 0.90 at m = 64 / 128 / 256 and grew
// the residual 5-37× in the first cycle.
func TestVCycleConvergenceFactor(t *testing.T) {
	for _, m := range []int{64, 128, 256} {
		sol := newSolver(seqMachine{}, m)
		roughRHS(sol.levels[0])
		prev := sol.residualNorm()
		for cycle := 1; cycle <= 6; cycle++ {
			sol.vcycle(0)
			res := sol.residualNorm()
			if factor := res / prev; factor > 0.2 {
				t.Errorf("m=%d cycle %d: residual %g → %g, factor %.3f > 0.2", m, cycle, prev, res, factor)
			}
			prev = res
		}
	}
}

// TestFewCyclesPerSolve: at the default tolerance every solve of every
// paper size finishes in a handful of V-cycles, nowhere near maxCycles.
func TestFewCyclesPerSolve(t *testing.T) {
	for _, size := range []int{66, 130, 258, 514} {
		_, cycles, err := Sequential(Config{Size: size, Steps: 2})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for i, n := range cycles {
			if n > 4 {
				t.Errorf("size %d timestep %d: %d V-cycles, want ≤ 4", size, i, n)
			}
		}
	}
}

func TestSolveReportsNonConvergence(t *testing.T) {
	sol := newSolver(seqMachine{}, 64)
	sol.tol = 1e-8
	sol.maxCycles = 1
	roughRHS(sol.levels[0])
	if cycles, ok := sol.Solve(); ok || cycles != 1 {
		t.Fatalf("Solve with maxCycles=1 = (%d, %v), want (1, false)", cycles, ok)
	}
	if !(sol.res > sol.target) {
		t.Fatalf("residual %g not above target %g", sol.res, sol.target)
	}
}

// TestSolveReportsNaN: a NaN in the right-hand side must fail the solve
// at once and show in the reported residual. A max-norm that dropped
// NaNs would see a finite |f|∞ and, once the NaN had spread through u,
// a zero residual, and report convergence.
func TestSolveReportsNaN(t *testing.T) {
	sol := newSolver(seqMachine{}, 64)
	roughRHS(sol.levels[0])
	sol.levels[0].f.row(20)[33] = math.NaN()
	cycles, ok := sol.Solve()
	if ok {
		t.Fatal("Solve converged on a right-hand side holding a NaN")
	}
	if cycles != 0 {
		t.Fatalf("Solve ran %d V-cycles on a NaN residual, want 0", cycles)
	}
	if !math.IsNaN(sol.res) {
		t.Fatalf("residual %g, want NaN", sol.res)
	}
}

// TestRunFailsWhenSolveDoesNotConverge: an unreachable tolerance makes
// the first solve hit maxCycles; every driver must return an error that
// names size, timestep, residual and target — on every rank, with no
// hang — rather than report success.
func TestRunFailsWhenSolveDoesNotConverge(t *testing.T) {
	cfg := Config{Size: 18, Steps: 2}
	ccfg := core.Config{P: 3, Transport: transport.ShmTransport{}}
	_, _, seqErr := sequential(cfg, 1e-30)
	_, _, _, parErr := parallel(ccfg, cfg, 1e-30)
	for name, err := range map[string]error{"Sequential": seqErr, "Parallel": parErr} {
		if err == nil {
			t.Errorf("%s reported success", name)
			continue
		}
		for _, want := range []string{"size 18", "timestep 0", "25 V-cycles", "residual", "target"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not mention %q", name, err, want)
			}
		}
	}
}

func TestSequentialProducesEddies(t *testing.T) {
	f, cycles, err := Sequential(Config{Size: 34})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 {
		t.Fatalf("expected 2 steps, got %d", len(cycles))
	}
	var maxAbs float64
	for _, v := range f.Psi {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs == 0 {
		t.Fatal("stream function stayed identically zero; wind forcing broken")
	}
	// Boundary must remain fixed at zero.
	m := f.M
	for i := 0; i <= m+1; i++ {
		if f.At(0, i) != 0 || f.At(m+1, i) != 0 || f.At(i, 0) != 0 || f.At(i, m+1) != 0 {
			t.Fatal("boundary violated")
		}
	}
}

// TestParallelBitIdenticalToSequential runs down to strips as thin as
// the smoother's two-row halo, and to ranks with no rows: at size 18 and
// p = 16 every other rank owns two rows and the rest own none, so a
// rank's halo rows are its neighbor's every row. At p = 3, 5, 6 and 7
// the nesting makes the strips uneven at every level.
func TestParallelBitIdenticalToSequential(t *testing.T) {
	for _, size := range []int{18, 34, 66, 130} {
		cfg := Config{Size: size, Steps: 2}
		want, _, err := Sequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
			got, st, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, cfg)
			if err != nil {
				t.Fatalf("size %d p=%d: %v", size, p, err)
			}
			checkBitIdentical(t, fmt.Sprintf("size %d p=%d", size, p), got, want)
			if st.S() < 10 {
				t.Errorf("size %d p=%d: implausibly few supersteps: %d", size, p, st.S())
			}
		}
	}
}

// TestParallelBitIdenticalOnSockets runs three timesteps over real
// transports. From the second on ψ ≠ 0, so the Jacobian and friction
// terms, not only the wind, carry values across the ghost exchanges.
func TestParallelBitIdenticalOnSockets(t *testing.T) {
	for _, size := range []int{66, 130} {
		cfg := Config{Size: size, Steps: 3}
		want, _, err := Sequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []transport.Transport{transport.TCPTransport{}, transport.XchgTransport{}} {
			for _, p := range []int{3, 4} {
				got, _, err := Parallel(core.Config{P: p, Transport: tr}, cfg)
				if err != nil {
					t.Fatalf("size %d p=%d %s: %v", size, p, tr.Name(), err)
				}
				checkBitIdentical(t, fmt.Sprintf("size %d p=%d %s", size, p, tr.Name()), got, want)
			}
		}
	}
}

func checkBitIdentical(t *testing.T, run string, got, want *Fields) {
	t.Helper()
	for i := range want.Psi {
		if got.Psi[i] != want.Psi[i] {
			t.Fatalf("%s: Psi[%d] = %g, want %g (must be bit-identical)", run, i, got.Psi[i], want.Psi[i])
		}
	}
}

func TestSuperstepCountIndependentOfP(t *testing.T) {
	// The solver's schedule is data-dependent but identical across
	// process counts, so S must not vary with p (the paper reports one
	// S per problem size).
	cfg := Config{Size: 34, Steps: 1}
	var s1 int
	for i, p := range []int{1, 2, 4} {
		_, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			s1 = st.S()
		} else if st.S() != s1 {
			t.Errorf("S varies with p: %d vs %d", st.S(), s1)
		}
	}
}

func TestGhostTrafficScalesWithPerimeter(t *testing.T) {
	// H should grow roughly linearly in the grid side (row exchanges),
	// not quadratically (full grid).
	cfg := core.Config{P: 4, Transport: transport.ShmTransport{}}
	_, stSmall, err := Parallel(cfg, Config{Size: 18, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stBig, err := Parallel(cfg, Config{Size: 66, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// H grows with supersteps (levels × cycles) too; the perimeter
	// property is about the h-relation *per superstep*: average h must
	// scale like the row length (4×), far below area scaling (16×).
	hSmall := float64(stSmall.H()) / float64(stSmall.S())
	hBig := float64(stBig.H()) / float64(stBig.S())
	if ratio := hBig / hSmall; ratio > 8 {
		t.Errorf("per-superstep h grew %0.1f× for a 4× side increase; ghost exchange is not perimeter-bound", ratio)
	}
}

func TestParallelRejectsBadSize(t *testing.T) {
	if _, _, err := Parallel(core.Config{P: 2, Transport: transport.ShmTransport{}}, Config{Size: 50}); err == nil {
		t.Fatal("invalid size accepted")
	}
	if _, _, err := Sequential(Config{Size: 51}); err == nil {
		t.Fatal("invalid size accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).steps() != 2 {
		t.Error("zero Steps should mean 2")
	}
}
