package fmm

import (
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// The parallel FMM follows the N-body application's essential-tree
// pattern (§3.2): bodies are partitioned into vertical strips, each
// process builds an adaptive quadtree over its strip, and the processes
// exchange "essential" information per peer — multipole expansions of
// cells that are well-separated from the peer's bounding box (valid for
// multipole-to-particle or multipole-to-local use anywhere inside it)
// and raw bodies where the geometry is too close for expansions. Each
// evaluation costs three supersteps: bounding boxes, essential exchange,
// and the closing diagnostics reduce.

// box2 is an axis-aligned rectangle in the plane.
type box2 struct {
	lo, hi complex128
}

func (b box2) distToPoint(z complex128) float64 {
	dx, dy := 0.0, 0.0
	if real(z) < real(b.lo) {
		dx = real(b.lo) - real(z)
	} else if real(z) > real(b.hi) {
		dx = real(z) - real(b.hi)
	}
	if imag(z) < imag(b.lo) {
		dy = imag(b.lo) - imag(z)
	} else if imag(z) > imag(b.hi) {
		dy = imag(z) - imag(b.hi)
	}
	return math.Hypot(dx, dy)
}

// remoteCell is an essential multipole shipped from a peer: usable at
// any point of this process's domain.
type remoteCell struct {
	center complex128
	radius float64
	q      float64
	mult   []complex128
}

// essentialFor walks the local tree and splits its content for a remote
// domain: cells separated from the whole domain ship as multipoles,
// near leaves ship raw bodies.
func (t *Tree) essentialFor(domain box2) ([]remoteCell, []Body) {
	var cells []remoteCell
	var bodies []Body
	var walk func(id int32)
	walk = func(id int32) {
		c := &t.cells[id]
		if c.q == 0 && c.leaf && len(c.bodies) == 0 {
			return
		}
		if domain.distToPoint(c.center) >= sep*c.radius() && c.radius() > 0 {
			cells = append(cells, remoteCell{center: c.center, radius: c.radius(), q: c.q, mult: c.mult})
			return
		}
		if c.leaf {
			for _, bi := range c.bodies {
				bodies = append(bodies, t.bodies[bi])
			}
			return
		}
		for _, ch := range c.children {
			if ch != noCell {
				walk(ch)
			}
		}
	}
	walk(t.root)
	return cells, bodies
}

// applyRemoteCell descends the local tree: well-separated target cells
// absorb the remote multipole by M2L; otherwise leaves evaluate it
// directly per body (always valid — the sender guaranteed separation
// from the entire domain).
func (t *Tree) applyRemoteCell(id int32, rc remoteCell, acc []complex128) {
	c := &t.cells[id]
	dist := cmplx.Abs(c.center - rc.center)
	if dist >= sep*(c.radius()+rc.radius) {
		t.m2lFrom(rc.center, rc.q, rc.mult, id)
		return
	}
	if c.leaf {
		for _, bi := range c.bodies {
			acc[bi] += evalMultipoleField(rc.center, rc.q, rc.mult, t.bodies[bi].Z)
		}
		t.Interactions += len(c.bodies) * len(rc.mult)
		return
	}
	for _, ch := range c.children {
		if ch != noCell {
			t.applyRemoteCell(ch, rc, acc)
		}
	}
}

// m2lFrom is m2l with an explicit source expansion (remote cell).
func (t *Tree) m2lFrom(srcCenter complex128, q float64, mult []complex128, dst int32) {
	p := t.p
	d := &t.cells[dst]
	if d.loc == nil {
		d.loc = make([]complex128, p+1)
	}
	tt := srcCenter - d.center
	invT := 1 / tt
	tl := complex(1, 0)
	for l := 1; l <= p; l++ {
		tl *= invT
		cl := -complex(q/float64(l), 0) * tl
		tk := tl
		sign := -1.0
		for k := 1; k <= len(mult); k++ {
			tk *= invT
			cl += mult[k-1] * complex(sign*binom(l+k-1, l), 0) * tk
			sign = -sign
		}
		d.loc[l] += cl
	}
	t.Interactions += p
}

// crossInteract runs the dual traversal with targets in t and sources in
// src (remote near-field bodies organized as their own tree).
func (t *Tree) crossInteract(dst int32, src *Tree, sid int32, acc []complex128) {
	d := &t.cells[dst]
	s := &src.cells[sid]
	dist := cmplx.Abs(d.center - s.center)
	if dist >= sep*(d.radius()+s.radius()) {
		t.m2lFrom(s.center, s.q, s.mult, dst)
		return
	}
	if d.leaf && s.leaf {
		for _, ti := range d.bodies {
			zt := t.bodies[ti].Z
			var f complex128
			for _, si := range s.bodies {
				dz := src.bodies[si].Z - zt
				r2 := real(dz)*real(dz) + imag(dz)*imag(dz)
				if r2 == 0 {
					continue
				}
				f += complex(src.bodies[si].M/r2, 0) * dz
			}
			acc[ti] += f
		}
		t.Interactions += len(d.bodies) * len(s.bodies)
		return
	}
	if !s.leaf && (d.leaf || s.half >= d.half) {
		for _, ch := range s.children {
			if ch != noCell {
				t.crossInteract(dst, src, ch, acc)
			}
		}
		return
	}
	for _, ch := range d.children {
		if ch != noCell {
			t.crossInteract(ch, src, sid, acc)
		}
	}
}

func boundsOf(bodies []Body) box2 {
	if len(bodies) == 0 {
		return box2{lo: complex(math.Inf(1), math.Inf(1)), hi: complex(math.Inf(-1), math.Inf(-1))}
	}
	b := box2{lo: bodies[0].Z, hi: bodies[0].Z}
	for _, bd := range bodies[1:] {
		b.lo = complex(math.Min(real(b.lo), real(bd.Z)), math.Min(imag(b.lo), imag(bd.Z)))
		b.hi = complex(math.Max(real(b.hi), real(bd.Z)), math.Max(imag(b.hi), imag(bd.Z)))
	}
	return b
}

// Parallel partitions bodies into strips by real coordinate, evaluates
// all forces on the BSP machine, and returns them in the input order.
func Parallel(cfg core.Config, bodies []Body) ([]complex128, *core.Stats, error) {
	order := make([]int, len(bodies))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		za, zb := bodies[order[a]].Z, bodies[order[b]].Z
		if real(za) != real(zb) {
			return real(za) < real(zb)
		}
		return order[a] < order[b]
	})
	mine := make([][]Body, cfg.P)
	mineIdx := make([][]int, cfg.P)
	n := len(bodies)
	for rank, oi := range order {
		q := rank * cfg.P / max(n, 1)
		mine[q] = append(mine[q], bodies[oi])
		mineIdx[q] = append(mineIdx[q], oi)
	}
	out := make([]complex128, n)
	st, err := core.Run(cfg, func(c *core.Proc) {
		acc := runTagged(c, mine[c.ID()])
		for i, f := range acc {
			out[mineIdx[c.ID()][i]] = f
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, st, nil
}

// runTagged evaluates forces for this process's bodies within a BSP
// machine: three supersteps (tagged bounding-box exchange, essential
// exchange, diagnostics reduce).
func runTagged(c *core.Proc, mine []Body) []complex128 {
	p := c.P()
	myBox := boundsOf(mine)
	w := wire.NewWriter(40)
	w.Uint32(uint32(c.ID()))
	w.Uint32(0)
	w.Float64(real(myBox.lo))
	w.Float64(imag(myBox.lo))
	w.Float64(real(myBox.hi))
	w.Float64(imag(myBox.hi))
	for q := 0; q < p; q++ {
		if q != c.ID() {
			c.Send(q, w.Bytes())
		}
	}
	c.Sync()
	boxes := make([]box2, p)
	boxes[c.ID()] = myBox
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		from := int(r.Uint32())
		r.Uint32()
		lo := complex(r.Float64(), r.Float64())
		hi := complex(r.Float64(), r.Float64())
		boxes[from] = box2{lo: lo, hi: hi}
	}
	// Superstep 2: essential exchange.
	tree := newTree(mine, order, leafCap)
	for q := 0; q < p; q++ {
		if q == c.ID() || len(mine) == 0 {
			continue
		}
		cells, raw := tree.essentialFor(boxes[q])
		out := wire.NewWriter(0)
		out.Uint32(uint32(len(cells)))
		out.Uint32(uint32(len(raw)))
		for _, rc := range cells {
			out.Float64(real(rc.center))
			out.Float64(imag(rc.center))
			out.Float64(rc.radius)
			out.Float64(rc.q)
			for _, a := range rc.mult {
				out.Float64(real(a))
				out.Float64(imag(a))
			}
		}
		for _, b := range raw {
			out.Float64(real(b.Z))
			out.Float64(imag(b.Z))
			out.Float64(b.M)
		}
		c.Send(q, out.Bytes())
	}
	c.Sync()
	var remoteCells []remoteCell
	var remoteBodies []Body
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		nc := int(r.Uint32())
		nb := int(r.Uint32())
		for i := 0; i < nc; i++ {
			rc := remoteCell{
				center: complex(r.Float64(), r.Float64()),
				radius: r.Float64(),
				q:      r.Float64(),
				mult:   make([]complex128, order),
			}
			for k := range rc.mult {
				rc.mult[k] = complex(r.Float64(), r.Float64())
			}
			remoteCells = append(remoteCells, rc)
		}
		for i := 0; i < nb; i++ {
			remoteBodies = append(remoteBodies, Body{Z: complex(r.Float64(), r.Float64()), M: r.Float64()})
		}
	}
	// Local dual traversal + remote contributions.
	acc := make([]complex128, len(mine))
	if len(mine) > 0 {
		tree.interact(tree.root, tree.root, acc)
		for _, rc := range remoteCells {
			tree.applyRemoteCell(tree.root, rc, acc)
		}
		if len(remoteBodies) > 0 {
			rt := newTree(remoteBodies, order, leafCap)
			tree.crossInteract(tree.root, rt, rt.root, acc)
		}
		tree.downward(tree.root, acc)
	}
	// Superstep 3: diagnostics reduce closes the evaluation.
	collect.AllReduceInt(c, tree.Interactions, func(a, b int) int { return a + b })
	c.AddWork(tree.Interactions)
	return acc
}
