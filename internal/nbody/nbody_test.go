package nbody

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/transport"
)

// directForces computes exact pairwise softened accelerations in O(N²);
// it is the oracle the Barnes-Hut codes are verified against.
func directForces(bodies []Body) []Vec3 {
	const eps2 = eps * eps
	acc := make([]Vec3, len(bodies))
	for i := range bodies {
		for j := range bodies {
			if i == j {
				continue
			}
			accumulate(&acc[i], bodies[i].Pos, bodies[j].Pos, bodies[j].Mass, eps2)
		}
	}
	return acc
}

// energy returns the total energy (kinetic + potential softened by
// eps) of the system, to check conservation.
func energy(bodies []Body, eps float64) float64 {
	eps2 := eps * eps
	var e float64
	for i := range bodies {
		e += 0.5 * bodies[i].Mass * bodies[i].Vel.Norm2()
		for j := i + 1; j < len(bodies); j++ {
			d := bodies[i].Pos.Sub(bodies[j].Pos)
			e -= bodies[i].Mass * bodies[j].Mass / math.Sqrt(d.Norm2()+eps2)
		}
	}
	return e
}

func TestPlummerBasics(t *testing.T) {
	const n = 2000
	bodies := Plummer(n, 42)
	if len(bodies) != n {
		t.Fatalf("got %d bodies", len(bodies))
	}
	var mass float64
	var cp, cv Vec3
	for _, b := range bodies {
		mass += b.Mass
		cp = cp.Add(b.Pos.Scale(b.Mass))
		cv = cv.Add(b.Vel.Scale(b.Mass))
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("total mass = %g, want 1", mass)
	}
	if math.Sqrt(cp.Norm2()) > 1e-9 || math.Sqrt(cv.Norm2()) > 1e-9 {
		t.Errorf("not in center-of-mass frame: |cp|=%g |cv|=%g", math.Sqrt(cp.Norm2()), math.Sqrt(cv.Norm2()))
	}
	// Plummer standard units: total energy ≈ -1/4 (finite-N and cutoff
	// effects allow a generous tolerance; softening shifts it slightly).
	e := energy(bodies, 1e-4)
	if e > -0.15 || e < -0.40 {
		t.Errorf("energy = %g, want ≈ -0.25", e)
	}
}

func TestPlummerDeterministic(t *testing.T) {
	a := Plummer(100, 7)
	b := Plummer(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different bodies")
		}
	}
	c := Plummer(100, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical bodies")
	}
}

func TestTreeAggregates(t *testing.T) {
	bodies := Plummer(500, 1)
	lo, hi := Bounds(bodies)
	tree := NewTree(bodies, lo, hi)
	if tree.NBodies() != 500 {
		t.Errorf("NBodies = %d", tree.NBodies())
	}
	if math.Abs(tree.Mass()-1) > 1e-9 {
		t.Errorf("Mass = %g", tree.Mass())
	}
}

func TestTreeCoincidentBodies(t *testing.T) {
	// Bodies at the same position must aggregate, not recurse forever.
	bodies := make([]Body, 10)
	for i := range bodies {
		bodies[i] = Body{Pos: Vec3{0.5, 0.5, 0.5}, Mass: 0.1}
	}
	bodies = append(bodies, Body{Pos: Vec3{-1, -1, -1}, Mass: 1})
	lo, hi := Bounds(bodies)
	tree := NewTree(bodies, lo, hi)
	if tree.NBodies() != 11 {
		t.Errorf("NBodies = %d, want 11", tree.NBodies())
	}
	a, _ := tree.Force(Vec3{-1, -1, -1}, 0.5, 0.05)
	if math.Sqrt(a.Norm2()) == 0 {
		t.Error("force from the aggregate clump is zero")
	}
}

// forceError returns the mean relative error of BH accelerations vs the
// direct oracle.
func forceError(bodies []Body, acc []Vec3) float64 {
	exact := directForces(bodies)
	var sum float64
	for i := range bodies {
		diff := acc[i].Sub(exact[i])
		mag := math.Sqrt(exact[i].Norm2())
		if mag == 0 {
			continue
		}
		sum += math.Sqrt(diff.Norm2()) / mag
	}
	return sum / float64(len(bodies))
}

// sequentialForces computes Barnes-Hut accelerations for all bodies with
// a single global tree, as Sequential does, and the total interaction
// count.
func sequentialForces(bodies []Body) ([]Vec3, int) {
	lo, hi := Bounds(bodies)
	t := NewTree(bodies, lo, hi)
	acc := make([]Vec3, len(bodies))
	total := 0
	for i := range bodies {
		a, k := t.Force(bodies[i].Pos, theta, eps)
		acc[i] = a
		total += k
	}
	return acc, total
}

func TestBarnesHutAccuracy(t *testing.T) {
	bodies := Plummer(800, 3)
	acc, interactions := sequentialForces(bodies)
	if err := forceError(bodies, acc); err > 0.02 {
		t.Errorf("mean relative force error %.4f > 2%% at theta=0.5", err)
	}
	if interactions >= len(bodies)*len(bodies) {
		t.Errorf("BH did %d interactions, not better than direct %d", interactions, len(bodies)*len(bodies))
	}
	// Smaller theta: more accurate, more interactions.
	accSmall, kSmall := func() ([]Vec3, int) {
		lo, hi := Bounds(bodies)
		tr := NewTree(bodies, lo, hi)
		out := make([]Vec3, len(bodies))
		total := 0
		for i := range bodies {
			a, k := tr.Force(bodies[i].Pos, 0.1, eps)
			out[i] = a
			total += k
		}
		return out, total
	}()
	if kSmall <= interactions {
		t.Errorf("theta=0.1 interactions %d should exceed theta=0.5's %d", kSmall, interactions)
	}
	if eSmall, e := forceError(bodies, accSmall), forceError(bodies, acc); eSmall > e {
		t.Errorf("theta=0.1 error %.5f should be below theta=0.5 error %.5f", eSmall, e)
	}
}

func TestEnergyConservation(t *testing.T) {
	bodies := Plummer(300, 4)
	e0 := energy(bodies, eps)
	Sequential(bodies, 5)
	e1 := energy(bodies, eps)
	if drift := math.Abs((e1 - e0) / e0); drift > 0.05 {
		t.Errorf("energy drift %.3f over 5 steps", drift)
	}
}

func TestORBPartition(t *testing.T) {
	bodies := Plummer(1000, 5)
	positions := make([]Vec3, len(bodies))
	for i, b := range bodies {
		positions[i] = b.Pos
	}
	lo, hi := Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	universe := Box{Lo: lo, Hi: hi}
	for _, p := range []int{1, 2, 4, 8, 16} {
		orb, err := BuildORB(positions, p, universe)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		counts := make([]int, p)
		for _, pos := range positions {
			q := orb.OwnerOf(pos)
			counts[q]++
			dom := orb.Domain(q, universe)
			if !dom.Contains(pos) {
				t.Fatalf("p=%d: owner %d's domain does not contain the position", p, q)
			}
			for other := 0; other < p; other++ {
				if other != q && orb.Domain(other, universe).Contains(pos) {
					t.Fatalf("p=%d: domains %d and %d overlap", p, q, other)
				}
			}
			if p == 16 {
				break // the O(p·n) overlap check is enough on one point set
			}
		}
		if p <= 8 {
			sort.Ints(counts)
			if counts[0] < len(positions)/(2*p) {
				t.Errorf("p=%d: most loaded/least loaded = %v", p, counts)
			}
		}
	}
	if _, err := BuildORB(positions, 3, universe); err == nil {
		t.Error("non-power-of-two p should fail")
	}
}

func TestORBEncodeDecode(t *testing.T) {
	bodies := Plummer(200, 6)
	positions := make([]Vec3, len(bodies))
	for i, b := range bodies {
		positions[i] = b.Pos
	}
	lo, hi := Bounds(bodies)
	universe := Box{Lo: lo, Hi: hi}
	orb, err := BuildORB(positions, 8, universe)
	if err != nil {
		t.Fatal(err)
	}
	dec := DecodeORB(orb.Encode())
	for _, pos := range positions {
		if orb.OwnerOf(pos) != dec.OwnerOf(pos) {
			t.Fatal("decoded ORB disagrees with original")
		}
	}
}

func TestEssentialTreeAccuracy(t *testing.T) {
	// Force computed from (local tree + essential points of the rest)
	// must be as accurate as full BH.
	bodies := Plummer(600, 7)
	positions := make([]Vec3, len(bodies))
	for i, b := range bodies {
		positions[i] = b.Pos
	}
	lo, hi := Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	universe := Box{Lo: lo, Hi: hi}
	orb, err := BuildORB(positions, 4, universe)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]Body, 4)
	for _, b := range bodies {
		q := orb.OwnerOf(b.Pos)
		parts[q] = append(parts[q], b)
	}
	trees := make([]*Tree, 4)
	for q := range parts {
		trees[q] = NewTree(parts[q], universe.Lo, universe.Hi)
	}
	const eps2 = eps * eps
	var acc []Vec3
	var accBodies []Body
	for q := range parts {
		var ext []EssentialPoint
		for r := range parts {
			if r != q {
				ext = append(ext, trees[r].Essential(orb.Domain(q, universe), theta)...)
			}
		}
		for _, b := range parts[q] {
			a, _ := trees[q].Force(b.Pos, theta, eps)
			for _, p := range ext {
				accumulate(&a, b.Pos, p.Pos, p.Mass, eps2)
			}
			acc = append(acc, a)
			accBodies = append(accBodies, b)
		}
	}
	if err := forceError(accBodies, acc); err > 0.02 {
		t.Errorf("essential-tree mean force error %.4f > 2%%", err)
	}
}

func TestParallelMatchesDirect(t *testing.T) {
	orig := Plummer(400, 8)
	const steps = 2
	// Direct integration oracle.
	exact := append([]Body(nil), orig...)
	for s := 0; s < steps; s++ {
		Step(exact, directForces(exact), dt)
	}
	for _, p := range []int{1, 2, 4} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, orig, steps)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(got) != len(orig) {
			t.Fatalf("p=%d: lost bodies", p)
		}
		// Positions are unordered; compare sorted displacement sets via
		// total mass-weighted position (robust summary) and per-body
		// nearest matching on a few samples.
		var cGot, cExact Vec3
		for i := range got {
			cGot = cGot.Add(got[i].Pos.Scale(got[i].Mass))
			cExact = cExact.Add(exact[i].Pos.Scale(exact[i].Mass))
		}
		if d := math.Sqrt(cGot.Sub(cExact).Norm2()); d > 1e-3 {
			t.Errorf("p=%d: center of mass drifted %g from direct", p, d)
		}
		wantS := 6 * steps
		if p == 1 {
			wantS = 4 * steps
		}
		if st.S() != wantS {
			t.Errorf("p=%d: S = %d, want %d (paper: 6 supersteps per iteration, 4 on one processor)", p, st.S(), wantS)
		}
	}
}

func TestParallelMatchesSequentialPositions(t *testing.T) {
	orig := Plummer(300, 9)
	seqBodies := append([]Body(nil), orig...)
	Sequential(seqBodies, 1)
	got, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, orig, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Match bodies by nearest neighbor (order is scrambled by
	// migration); displacement should be at BH accuracy level.
	var worst float64
	for _, b := range got {
		best := math.Inf(1)
		for _, sb := range seqBodies {
			if d := b.Pos.Sub(sb.Pos).Norm2(); d < best {
				best = d
			}
		}
		worst = math.Max(worst, math.Sqrt(best))
	}
	if worst > 1e-3 {
		t.Errorf("worst nearest-neighbor displacement %g between parallel and sequential BH", worst)
	}
}

func TestRebalanceTriggers(t *testing.T) {
	// With a tight threshold, a strongly clustered system that drifts
	// must eventually repartition; with an enormous threshold it must
	// not.
	bodies := Plummer(400, 10)
	orbP := 4
	positions := make([]Vec3, len(bodies))
	for i, b := range bodies {
		positions[i] = b.Pos
	}
	lo, hi := Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	universe := Box{Lo: lo, Hi: hi}
	orb, err := BuildORB(positions, orbP, universe)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately unbalanced initial assignment: all bodies on rank 0.
	mine := make([][]Body, orbP)
	mine[0] = bodies
	rebalances := make([]int, orbP)
	_, err = core.Run(core.Config{P: orbP, Transport: transport.ShmTransport{}}, func(c *core.Proc) {
		_, rb := Run(c, mine[c.ID()], orb, 1.1, 2)
		rebalances[c.ID()] = rb
	})
	if err != nil {
		t.Fatal(err)
	}
	if rebalances[0] == 0 {
		t.Error("an all-on-one-rank start with threshold 1.1 must trigger a rebalance")
	}
}

func TestQuickORBCoversAllPoints(t *testing.T) {
	f := func(seed int64, pPick uint8) bool {
		p := 1 << (int(pPick) % 4) // 1, 2, 4, 8
		bodies := Plummer(100, seed)
		positions := make([]Vec3, len(bodies))
		for i, b := range bodies {
			positions[i] = b.Pos
		}
		lo, hi := Bounds(bodies)
		for k := 0; k < 3; k++ {
			hi[k] += 1e-9
		}
		universe := Box{Lo: lo, Hi: hi}
		orb, err := BuildORB(positions, p, universe)
		if err != nil {
			return false
		}
		for _, pos := range positions {
			q := orb.OwnerOf(pos)
			if q < 0 || q >= p || !orb.Domain(q, universe).Contains(pos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
