// Package cg implements a BSP conjugate-gradient solver for sparse
// symmetric positive-definite systems of the form (L + I)x = b, where L
// is the weighted Laplacian of a geometric graph — the sparse scientific
// computing the paper situates BSP in through Bisseling's work ("Sparse
// matrix computations on bulk synchronous parallel computers" and
// "Scientific computing on bulk synchronous parallel architectures",
// references [5, 6]).
//
// The parallel solver reuses the home/border partitioning of the graph
// applications: the matrix row of a home node touches only home and
// border entries, so the matrix-vector product needs exactly one
// border-exchange superstep per iteration (h bounded by the border size,
// conservative in the paper's sense), and the two inner products add two
// all-reduce supersteps: S = 3 per CG iteration.
package cg

import (
	"math"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// tol is the absolute residual-norm target. It is typed, so tol*tol
// rounds like the float64 product the loops compare against.
const tol float64 = 1e-8

// maxIter bounds the iteration count for n unknowns.
func maxIter(n int) int {
	return 10*int(math.Sqrt(float64(n))) + 100
}

// Apply computes y = (L + I)x for the graph's weighted Laplacian.
func Apply(g *graph.Graph, x []float64) []float64 {
	y := make([]float64, g.N)
	for u := int32(0); u < int32(g.N); u++ {
		adj, w := g.Neighbors(u)
		s := x[u]
		var deg float64
		for k, v := range adj {
			deg += w[k]
			s -= w[k] * x[v]
		}
		y[u] = s + deg*x[u]
	}
	return y
}

// Sequential solves (L+I)x = b by conjugate gradients and returns the
// solution and the iteration count.
func Sequential(g *graph.Graph, b []float64) ([]float64, int) {
	n := g.N
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rs := dot(r, r)
	iters := 0
	for ; iters < maxIter(n) && rs > tol*tol; iters++ {
		ap := Apply(g, p)
		alpha := rs / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rs2 := dot(r, r)
		beta := rs2 / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rs2
	}
	return x, iters
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// procState is one process's CG state over its graph part.
type procState struct {
	c    *core.Proc
	part *graph.Part
	// Vectors over local nodes (home entries authoritative; border
	// entries of p mirrored each iteration).
	x, r, p, ap []float64
	out         []*wire.Writer
}

// exchangeP refreshes border copies of the direction vector (one
// superstep; h ≤ border size).
func (s *procState) exchangeP() {
	part, c := s.part, s.c
	for h := 0; h < part.NHome; h++ {
		if len(part.Ghosts[h]) == 0 {
			continue
		}
		g := uint32(part.Global[h])
		v := s.p[h]
		for _, q := range part.Ghosts[h] {
			w := s.out[q]
			w.Uint32(g)
			w.Uint32(0)
			w.Float64(v)
		}
	}
	for q := 0; q < c.P(); q++ {
		if s.out[q].Len() > 0 {
			c.Send(q, s.out[q].Bytes())
			s.out[q].Reset()
		}
	}
	c.Sync()
	for {
		msg, ok := c.Recv()
		if !ok {
			return
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			g := int32(r.Uint32())
			r.Uint32()
			v := r.Float64()
			if l, ok := part.LocalOf(g); ok && !part.IsHome(l) {
				s.p[l] = v
			}
		}
	}
}

// applyLocal computes ap = (L+I)p over home rows using local + border
// entries of p.
func (s *procState) applyLocal() {
	part := s.part
	for h := int32(0); h < int32(part.NHome); h++ {
		adj, w := part.Neighbors(h)
		acc := s.p[h]
		var deg float64
		for k, v := range adj {
			deg += w[k]
			acc -= w[k] * s.p[v]
		}
		s.ap[h] = acc + deg*s.p[h]
		s.c.AddWork(1 + len(adj))
	}
}

// run solves the system on one BSP process; b is indexed by global node
// id (every process receives the full right-hand side and uses its home
// entries). It returns this process's home solution values and the
// iteration count.
func run(c *core.Proc, part *graph.Part, b []float64) ([]float64, int) {
	nl := part.NLocal()
	s := &procState{c: c, part: part,
		x: make([]float64, part.NHome), r: make([]float64, part.NHome),
		p: make([]float64, nl), ap: make([]float64, part.NHome),
		out: make([]*wire.Writer, c.P()),
	}
	for i := range s.out {
		s.out[i] = wire.NewWriter(0)
	}
	for h := 0; h < part.NHome; h++ {
		s.r[h] = b[part.Global[h]]
		s.p[h] = s.r[h]
	}
	rs := collect.AllReduce(c, dot(s.r, s.r), collect.SumFloat)
	nGlobal := collect.AllReduceInt(c, part.NHome, func(a, b int) int { return a + b })
	iters := 0
	for ; iters < maxIter(nGlobal) && rs > tol*tol; iters++ {
		s.exchangeP()
		s.applyLocal()
		var pap float64
		for h := 0; h < part.NHome; h++ {
			pap += s.p[h] * s.ap[h]
		}
		pap = collect.AllReduce(c, pap, collect.SumFloat)
		alpha := rs / pap
		var rs2 float64
		for h := 0; h < part.NHome; h++ {
			s.x[h] += alpha * s.p[h]
			s.r[h] -= alpha * s.ap[h]
			rs2 += s.r[h] * s.r[h]
		}
		rs2 = collect.AllReduce(c, rs2, collect.SumFloat)
		beta := rs2 / rs
		for h := 0; h < part.NHome; h++ {
			s.p[h] = s.r[h] + beta*s.p[h]
		}
		rs = rs2
	}
	return s.x, iters
}

// Parallel partitions the graph, solves on the BSP machine, and returns
// the assembled solution with the iteration count and run statistics.
func Parallel(ccfg core.Config, g *graph.Graph, b []float64) ([]float64, int, *core.Stats, error) {
	pt := graph.PartitionStrips(g, ccfg.P)
	out := make([]float64, g.N)
	iters := make([]int, ccfg.P)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		part := pt.Parts[c.ID()]
		x, it := run(c, part, b)
		for h := 0; h < part.NHome; h++ {
			out[part.Global[h]] = x[h]
		}
		iters[c.ID()] = it
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return out, iters[0], st, nil
}
