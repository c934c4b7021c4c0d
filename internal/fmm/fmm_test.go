package fmm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// directFieldAt returns the exact force field at z from all bodies.
func directFieldAt(bodies []Body, z complex128) complex128 {
	var f complex128
	for _, b := range bodies {
		dz := b.Z - z
		r2 := real(dz)*real(dz) + imag(dz)*imag(dz)
		if r2 == 0 {
			continue
		}
		f += complex(b.M/r2, 0) * dz
	}
	return f
}

// directForces is the O(N²) oracle: every body's exact force.
func directForces(bodies []Body) []complex128 {
	acc := make([]complex128, len(bodies))
	for i, b := range bodies {
		acc[i] = directFieldAt(bodies, b.Z)
	}
	return acc
}

// rootField evaluates the force at z from the tree's root multipole
// expansion (valid only far from the tree).
func rootField(t *Tree, z complex128) complex128 {
	c := &t.cells[t.root]
	return evalMultipoleField(c.center, c.q, c.mult, z)
}

func relErr(got, want complex128) float64 {
	if cmplx.Abs(want) == 0 {
		return cmplx.Abs(got)
	}
	return cmplx.Abs(got-want) / cmplx.Abs(want)
}

func clusterBodies(n int, center complex128, spread float64, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]Body, n)
	for i := range bodies {
		bodies[i] = Body{
			Z: center + complex(rng.NormFloat64(), rng.NormFloat64())*complex(spread, 0),
			M: rng.Float64() + 0.1,
		}
	}
	return bodies
}

// TestP2MFieldAccuracy: a leaf's multipole expansion reproduces the
// field far away.
func TestP2MFieldAccuracy(t *testing.T) {
	bodies := clusterBodies(30, complex(0.5, 0.5), 0.05, 1)
	tree := newTree(bodies, order, 64) // single leaf
	for _, z := range []complex128{complex(2, 1), complex(-1, -1), complex(0.5, 3)} {
		got := rootField(tree, z)
		want := directFieldAt(bodies, z)
		if e := relErr(got, want); e > 1e-9 {
			t.Errorf("field at %v: rel err %.2e", z, e)
		}
	}
}

// TestM2MInvariance: the root expansion built by M2M from children
// matches a direct P2M of all bodies.
func TestM2MInvariance(t *testing.T) {
	bodies := clusterBodies(200, complex(0.5, 0.5), 0.3, 2)
	deep := newTree(bodies, order, 8)       // several levels of M2M
	shallow := newTree(bodies, order, 1000) // pure P2M
	for _, z := range []complex128{complex(3, 2), complex(-2, 4)} {
		a := rootField(deep, z)
		b := rootField(shallow, z)
		if e := relErr(a, b); e > 1e-9 {
			t.Errorf("M2M vs P2M at %v: rel err %.2e", z, e)
		}
	}
}

// TestFMMMatchesDirect: the full pipeline (P2M, M2M, M2L, L2L, P2P)
// reproduces the direct O(N²) forces.
func TestFMMMatchesDirect(t *testing.T) {
	bodies := RandomBodies(1500, 3)
	acc, tree := Forces(bodies)
	want := directForces(bodies)
	var worst, sum float64
	for i := range acc {
		e := relErr(acc[i], want[i])
		worst = math.Max(worst, e)
		sum += e
	}
	mean := sum / float64(len(acc))
	if mean > 1e-6 {
		t.Errorf("mean relative force error %.2e (P=12 should reach ~1e-8)", mean)
	}
	if worst > 1e-3 {
		t.Errorf("worst relative force error %.2e", worst)
	}
	if tree.Interactions >= len(bodies)*len(bodies) {
		t.Errorf("FMM did %d interactions — no better than direct %d", tree.Interactions, len(bodies)*len(bodies))
	}
}

// TestFMMOrderControlsAccuracy: higher P gives smaller error.
func TestFMMOrderControlsAccuracy(t *testing.T) {
	bodies := RandomBodies(800, 4)
	want := directForces(bodies)
	meanErr := func(p int) float64 {
		acc := newTree(bodies, p, leafCap).Forces()
		var sum float64
		for i := range acc {
			sum += relErr(acc[i], want[i])
		}
		return sum / float64(len(acc))
	}
	e4, e12 := meanErr(4), meanErr(12)
	if e12 >= e4 {
		t.Errorf("P=12 error %.2e not below P=4 error %.2e", e12, e4)
	}
	if e4 > 1e-2 {
		t.Errorf("even P=4 should reach percent-level accuracy, got %.2e", e4)
	}
}

// TestAdaptivity: on a strongly clustered distribution, the adaptive
// tree is much deeper in clusters than in the background — and the FMM
// still beats direct summation on interaction count.
func TestAdaptivity(t *testing.T) {
	n := 3000
	bodies := RandomBodies(n, 5)
	_, tree := Forces(bodies)
	if tree.Interactions >= n*n/4 {
		t.Errorf("adaptive FMM interactions %d vs direct %d", tree.Interactions, n*n)
	}
	// Depth check: at least one leaf far smaller than the root —
	// adaptivity refined the clusters.
	minHalf := tree.cells[tree.root].half
	for _, c := range tree.cells {
		if c.leaf && c.half < minHalf {
			minHalf = c.half
		}
	}
	if minHalf > tree.cells[tree.root].half/64 {
		t.Errorf("tree did not refine clusters: min leaf half %g vs root %g", minHalf, tree.cells[tree.root].half)
	}
}

// TestCoincidentBodies: coincident points must not produce NaN or hang.
func TestCoincidentBodies(t *testing.T) {
	bodies := make([]Body, 50)
	for i := range bodies {
		bodies[i] = Body{Z: complex(0.5, 0.5), M: 1}
	}
	bodies = append(bodies, Body{Z: complex(0.9, 0.9), M: 2})
	acc, _ := Forces(bodies)
	for i, f := range acc {
		if cmplx.IsNaN(f) || cmplx.IsInf(f) {
			t.Fatalf("body %d: force %v", i, f)
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	if acc, _ := Forces(nil); len(acc) != 0 {
		t.Fatal("empty input")
	}
	acc, _ := Forces([]Body{{Z: 0, M: 1}})
	if cmplx.Abs(acc[0]) != 0 {
		t.Fatalf("single body force %v", acc[0])
	}
	two := []Body{{Z: 0, M: 1}, {Z: complex(1, 0), M: 1}}
	acc, _ = Forces(two)
	if e := relErr(acc[0], complex(1, 0)); e > 1e-12 {
		t.Fatalf("two-body force %v, want (1+0i)", acc[0])
	}
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{0, 0, 1}, {5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {12, 6, 924}, {3, 5, 0}, {4, -1, 0}}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

// TestQuickFMMAccuracy: random configurations stay within tolerance.
func TestQuickFMMAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	f := func(seed int64) bool {
		bodies := RandomBodies(300, seed)
		acc, _ := Forces(bodies)
		want := directForces(bodies)
		var sum float64
		for i := range acc {
			sum += relErr(acc[i], want[i])
		}
		return sum/float64(len(acc)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
