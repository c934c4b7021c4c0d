// Package fmm implements the adaptive Fast Multipole Method the paper
// names as work in progress (§5: "we are also currently working on the
// implementation of some additional application programs, including the
// adaptive Fast Multipole Method [Carrier-Greengard-Rokhlin]").
//
// This is the two-dimensional FMM for the logarithmic potential in its
// complex-variable form. Sources of mass m at complex position z
// generate the analytic potential Φ(z) = Σ m_j log(z - z_j); the force
// field is F(z) = -conj(Φ'(z)). An adaptive quadtree (cells split only
// while they hold more than leafCap = 16 bodies) carries multipole
// expansions of order P = 12
//
//	Φ(z) ≈ Q log(z-z0) + Σ_{k=1..P} a_k/(z-z0)^k
//
// upward (P2M, M2M), a dual-tree traversal converts well-separated pairs
// to local expansions (M2L) and near pairs to direct sums (P2P), and a
// downward pass (L2L) accumulates the local expansions at the leaves.
// The dual-tree formulation is the simplification of the
// Carrier-Greengard-Rokhlin interaction lists: it is equally adaptive
// (cell pairs refine only where the geometry demands) with much simpler
// bookkeeping.
package fmm

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Body is a point mass in the plane.
type Body struct {
	Z complex128
	M float64
}

// The FMM accuracy parameters.
const (
	// order is the expansion order P.
	order = 12
	// leafCap is the adaptive split threshold.
	leafCap = 16
	// sep is the well-separation multiplier: cells interact through
	// expansions when the center distance is at least sep·(r1+r2).
	sep float64 = 1.6
)

const noCell = int32(-1)

// cell is one quadtree node.
type cell struct {
	center   complex128
	half     float64
	children [4]int32
	bodies   []int32 // leaf payload
	leaf     bool
	// q is the total mass; mult[k-1] holds a_k for k = 1..P.
	q    float64
	mult []complex128
	loc  []complex128 // local expansion c_l, l = 0..P
}

func (c *cell) radius() float64 { return c.half * math.Sqrt2 }

// Tree is an adaptive FMM quadtree with expansions.
type Tree struct {
	// p is the expansion order and split the adaptive split threshold:
	// order and leafCap, except in tests that vary them.
	p, split int
	cells    []cell
	bodies   []Body
	root     int32
	// Interactions counts expansion and direct operations, the FMM
	// analogue of the Barnes-Hut interaction count.
	Interactions int
}

// maxDepth bounds splitting for pathological (coincident) inputs.
const maxDepth = 48

// newTree builds the adaptive quadtree, splitting cells that hold more
// than split bodies, and computes the order-p upward pass.
func newTree(bodies []Body, p, split int) *Tree {
	t := &Tree{p: p, split: split, bodies: bodies}
	var lo, hi complex128
	if len(bodies) > 0 {
		lo, hi = bodies[0].Z, bodies[0].Z
		for _, b := range bodies[1:] {
			lo = complex(math.Min(real(lo), real(b.Z)), math.Min(imag(lo), imag(b.Z)))
			hi = complex(math.Max(real(hi), real(b.Z)), math.Max(imag(hi), imag(b.Z)))
		}
	}
	half := math.Max(real(hi-lo), imag(hi-lo))/2*1.0001 + 1e-12
	center := (lo + hi) / 2
	idx := make([]int32, len(bodies))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = t.build(center, half, idx, 0)
	t.upward(t.root)
	return t
}

func (t *Tree) build(center complex128, half float64, idx []int32, depth int) int32 {
	id := int32(len(t.cells))
	t.cells = append(t.cells, cell{
		center: center, half: half, leaf: true,
		children: [4]int32{noCell, noCell, noCell, noCell},
	})
	if len(idx) <= t.split || depth >= maxDepth {
		t.cells[id].bodies = idx
		return id
	}
	var quads [4][]int32
	for _, bi := range idx {
		d := t.bodies[bi].Z - center
		q := 0
		if real(d) >= 0 {
			q |= 1
		}
		if imag(d) >= 0 {
			q |= 2
		}
		quads[q] = append(quads[q], bi)
	}
	t.cells[id].leaf = false
	for q, qi := range quads {
		if len(qi) == 0 {
			continue
		}
		dx, dy := -half/2, -half/2
		if q&1 != 0 {
			dx = half / 2
		}
		if q&2 != 0 {
			dy = half / 2
		}
		child := t.build(center+complex(dx, dy), half/2, qi, depth+1)
		t.cells[id].children[q] = child
	}
	return id
}

// upward computes multipole expansions bottom-up: P2M at leaves, M2M at
// internal cells.
func (t *Tree) upward(id int32) {
	p := t.p
	c := &t.cells[id]
	c.mult = make([]complex128, p)
	if c.leaf {
		for _, bi := range c.bodies {
			b := t.bodies[bi]
			c.q += b.M
			d := b.Z - c.center
			// a_k = Σ -m (z - z0)^k / k
			pow := complex(1, 0)
			for k := 1; k <= p; k++ {
				pow *= d
				c.mult[k-1] -= complex(b.M/float64(k), 0) * pow
			}
		}
		return
	}
	for _, ch := range c.children {
		if ch == noCell {
			continue
		}
		t.upward(ch)
		t.m2m(ch, id)
	}
}

// m2m translates the child's multipole expansion to the parent center:
// b_l = -Q d^l/l + Σ_{k=1..l} a_k C(l-1, k-1) d^{l-k}, d = z_child - z_parent.
func (t *Tree) m2m(child, parent int32) {
	p := t.p
	ch := &t.cells[child]
	pa := &t.cells[parent]
	d := ch.center - pa.center
	pa.q += ch.q
	dl := complex(1, 0) // d^l
	for l := 1; l <= p; l++ {
		dl *= d
		bl := -complex(ch.q/float64(l), 0) * dl
		dpow := complex(1, 0) // d^{l-k} built from k=l downwards
		for k := l; k >= 1; k-- {
			bl += ch.mult[k-1] * complex(binom(l-1, k-1), 0) * dpow
			dpow *= d
		}
		pa.mult[l-1] += bl
	}
}

// m2l converts the source cell's multipole expansion into a local
// expansion about the target cell's center:
//
//	c_l = -Q/(l t^l) + (1/t^l) Σ_k a_k (-1)^k C(l+k-1, l) / t^k
//
// with t = z_source - z_target. The constant term c_0 only shifts the
// potential and is not needed for forces, so it is skipped.
func (t *Tree) m2l(src, dst int32) {
	p := t.p
	s := &t.cells[src]
	d := &t.cells[dst]
	if d.loc == nil {
		d.loc = make([]complex128, p+1)
	}
	tt := s.center - d.center
	invT := 1 / tt
	tl := complex(1, 0) // 1/t^l
	for l := 1; l <= p; l++ {
		tl *= invT
		cl := -complex(s.q/float64(l), 0) * tl
		tk := tl // 1/t^{l+k}
		sign := -1.0
		for k := 1; k <= p; k++ {
			tk *= invT
			cl += s.mult[k-1] * complex(sign*binom(l+k-1, l), 0) * tk
			sign = -sign
		}
		d.loc[l] += cl
	}
	t.Interactions += p
}

// l2l translates the parent's local expansion to the child center:
// c'_l = Σ_{k>=l} c_k C(k, l) d^{k-l}, d = z_child - z_parent.
func (t *Tree) l2l(parent, child int32) {
	p := t.p
	pa := &t.cells[parent]
	ch := &t.cells[child]
	if pa.loc == nil {
		return
	}
	if ch.loc == nil {
		ch.loc = make([]complex128, p+1)
	}
	d := ch.center - pa.center
	for l := 0; l <= p; l++ {
		var cl complex128
		dpow := complex(1, 0)
		for k := l; k <= p; k++ {
			cl += pa.loc[k] * complex(binom(k, l), 0) * dpow
			dpow *= d
		}
		ch.loc[l] += cl
	}
}

// Forces computes the force field at every body: F = -conj(Φ').
func (t *Tree) Forces() []complex128 {
	acc := make([]complex128, len(t.bodies))
	t.interact(t.root, t.root, acc)
	t.downward(t.root, acc)
	return acc
}

// interact is the adaptive dual-tree traversal.
func (t *Tree) interact(dst, src int32, acc []complex128) {
	d := &t.cells[dst]
	s := &t.cells[src]
	dist := cmplx.Abs(d.center - s.center)
	if dist >= sep*(d.radius()+s.radius()) {
		t.m2l(src, dst)
		return
	}
	if d.leaf && s.leaf {
		t.p2p(dst, src, acc)
		return
	}
	// Refine the larger cell (the leaf, if one side cannot refine).
	if !s.leaf && (d.leaf || s.half >= d.half) {
		for _, ch := range s.children {
			if ch != noCell {
				t.interact(dst, ch, acc)
			}
		}
		return
	}
	for _, ch := range d.children {
		if ch != noCell {
			t.interact(ch, src, acc)
		}
	}
}

// p2p adds direct pairwise forces from the source leaf onto the target
// leaf's bodies.
func (t *Tree) p2p(dst, src int32, acc []complex128) {
	d := &t.cells[dst]
	s := &t.cells[src]
	for _, ti := range d.bodies {
		zt := t.bodies[ti].Z
		var f complex128
		for _, si := range s.bodies {
			if si == ti {
				continue
			}
			dz := t.bodies[si].Z - zt
			r2 := real(dz)*real(dz) + imag(dz)*imag(dz)
			if r2 == 0 {
				continue // coincident bodies exert no net force
			}
			f += complex(t.bodies[si].M/r2, 0) * dz
		}
		acc[ti] += f
	}
	t.Interactions += len(d.bodies) * len(s.bodies)
}

// downward pushes local expansions to the leaves and evaluates them.
func (t *Tree) downward(id int32, acc []complex128) {
	c := &t.cells[id]
	if c.leaf {
		if c.loc == nil {
			return
		}
		p := t.p
		for _, bi := range c.bodies {
			u := t.bodies[bi].Z - c.center
			// Φ'(z) = Σ l c_l u^{l-1}; F = -conj(Φ').
			var dphi complex128
			upow := complex(1, 0)
			for l := 1; l <= p; l++ {
				dphi += complex(float64(l), 0) * c.loc[l] * upow
				upow *= u
			}
			acc[bi] += -cmplx.Conj(dphi)
		}
		return
	}
	for _, ch := range c.children {
		if ch != noCell {
			t.l2l(id, ch)
			t.downward(ch, acc)
		}
	}
}

// evalMultipoleField computes F = -conj(Φ') for a multipole expansion:
// Φ'(z) = Q/(z-z0) - Σ k a_k/(z-z0)^{k+1}.
func evalMultipoleField(z0 complex128, q float64, mult []complex128, z complex128) complex128 {
	u := z - z0
	inv := 1 / u
	dphi := complex(q, 0) * inv
	upow := inv
	for k := 1; k <= len(mult); k++ {
		upow *= inv
		dphi -= complex(float64(k), 0) * mult[k-1] * upow
	}
	return -cmplx.Conj(dphi)
}

// Forces runs the full sequential FMM on bodies.
func Forces(bodies []Body) ([]complex128, *Tree) {
	t := newTree(bodies, order, leafCap)
	return t.Forces(), t
}

// RandomBodies returns n deterministic bodies: a mix of a uniform
// background and tight clusters, the non-uniform distribution that
// motivates the *adaptive* FMM.
func RandomBodies(n int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([]Body, n)
	for i := range bodies {
		var z complex128
		if i%3 == 0 {
			z = complex(rng.Float64(), rng.Float64())
		} else {
			// Clusters at fixed sites with small spread.
			site := complex(0.2+0.6*float64(i%5)/4, 0.2+0.6*float64(i%7)/6)
			z = site + complex(rng.NormFloat64(), rng.NormFloat64())*0.01
		}
		bodies[i] = Body{Z: z, M: rng.Float64()/float64(n) + 1e-6}
	}
	return bodies
}

// binom returns C(n, k) as float64; orders are small so the iterative
// product is exact well past the needs of P ≤ 20.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
