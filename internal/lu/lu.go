// Package lu implements dense LU factorization with partial pivoting on
// the BSP machine — one of the "static computations that arise in
// scientific computing" (§1.3), and the canonical BSP scientific kernel
// of the Bisseling-McColl line of work the paper cites ([5, 6]).
//
// Columns are distributed cyclically (column j on process j mod p). Each
// elimination step k is one collect.Broadcast superstep: the owner of
// column k selects the pivot, scales the multipliers, and broadcasts the
// pivot index and the h = n−k−1 multipliers below the diagonal; all
// processes then apply the row swap and the rank-1 update to their own
// columns. S = n supersteps, and the owner sends one 8(n−k)-byte message
// to each of the p−1 others at step k — the perfectly predictable cost
// profile of a static computation.
//
// The parallel factorization performs the same floating-point operations
// in the same order per element as the sequential code, so L and U are
// bit-identical at every process count — the property the tests assert.
package lu

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// Factorization holds PA = LU in packed form: L (unit diagonal, below)
// and U (on and above) share the n×n array; Perm is the row permutation
// (Perm[i] = source row of row i in the permuted matrix).
type Factorization struct {
	N    int
	LU   []float64
	Perm []int
}

// Sequential factors a copy of the n×n row-major matrix a with partial
// pivoting. It returns an error on a singular pivot.
func Sequential(a []float64, n int) (*Factorization, error) {
	f := &Factorization{N: n, LU: append([]float64(nil), a...), Perm: make([]int, n)}
	for i := range f.Perm {
		f.Perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		piv, pmax := k, math.Abs(f.LU[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.LU[i*n+k]); v > pmax {
				piv, pmax = i, v
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("lu: singular at column %d", k)
		}
		if piv != k {
			swapRows(f.LU, n, k, piv)
			f.Perm[k], f.Perm[piv] = f.Perm[piv], f.Perm[k]
		}
		d := f.LU[k*n+k]
		for i := k + 1; i < n; i++ {
			f.LU[i*n+k] /= d
		}
		for i := k + 1; i < n; i++ {
			l := f.LU[i*n+k]
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.LU[i*n+j] -= l * f.LU[k*n+j]
			}
		}
	}
	return f, nil
}

func swapRows(m []float64, n, a, b int) {
	for j := 0; j < n; j++ {
		m[a*n+j], m[b*n+j] = m[b*n+j], m[a*n+j]
	}
}

// Solve returns x with (PA)x = Pb, i.e. Ax = b.
func (f *Factorization) Solve(b []float64) []float64 {
	n := f.N
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.Perm[i]]
	}
	// Forward: Ly = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.LU[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Backward: Ux = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.LU[i*n+j] * x[j]
		}
		x[i] = s / f.LU[i*n+i]
	}
	return x
}

// Reconstruct returns P·A − L·U's max-norm, the standard factorization
// residual (0 up to round-off).
func (f *Factorization) Reconstruct(a []float64) float64 {
	n := f.N
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var lu float64
			kmax := min(i, j)
			for k := 0; k <= kmax; k++ {
				l := f.LU[i*n+k]
				if k == i {
					l = 1
				}
				var u float64
				if k <= j {
					u = f.LU[k*n+j]
				}
				if k == i && k <= j {
					lu += u
				} else if k < i && k <= j {
					lu += l * u
				}
			}
			worst = math.Max(worst, math.Abs(a[f.Perm[i]*n+j]-lu))
		}
	}
	return worst
}

// RandomMatrix returns a well-conditioned deterministic test matrix
// (random entries plus a dominant diagonal).
func RandomMatrix(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n) / 4
	}
	return a
}

// Parallel factors the matrix on a BSP machine with column-cyclic
// distribution and returns the assembled factorization (identical to
// Sequential's bit-for-bit).
func Parallel(ccfg core.Config, a []float64, n int) (*Factorization, *core.Stats, error) {
	p := ccfg.P
	cols := make([][]float64, p) // cols[q]: owned columns, packed
	ownedIdx := make([][]int, p)
	for j := 0; j < n; j++ {
		q := j % p
		ownedIdx[q] = append(ownedIdx[q], j)
	}
	for q := 0; q < p; q++ {
		cols[q] = make([]float64, len(ownedIdx[q])*n)
		for cj, j := range ownedIdx[q] {
			for i := 0; i < n; i++ {
				cols[q][cj*n+i] = a[i*n+j]
			}
		}
	}
	factored := make([][]float64, p) // nil for ranks hosted elsewhere
	perms := make([][]int, p)
	errs := make([]error, p)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		// Factor a copy: elimination is in place, and a re-execution
		// after a recovered fault must start from the input columns.
		factored[c.ID()] = append([]float64(nil), cols[c.ID()]...)
		perm, err := factorProc(c, factored[c.ID()], ownedIdx[c.ID()], n)
		perms[c.ID()] = perm
		errs[c.ID()] = err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, st, e
		}
	}
	f := &Factorization{N: n, LU: make([]float64, n*n), Perm: perms[0]}
	for q, fq := range factored {
		if fq == nil {
			continue
		}
		for cj, j := range ownedIdx[q] {
			for i := 0; i < n; i++ {
				f.LU[i*n+j] = fq[cj*n+i]
			}
		}
	}
	return f, st, nil
}

// factorProc is the per-process elimination loop.
func factorProc(c *core.Proc, myCols []float64, myIdx []int, n int) ([]int, error) {
	p := c.P()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// localCol maps global column -> position in myCols, or -1.
	localCol := make([]int, n)
	for i := range localCol {
		localCol[i] = -1
	}
	for cj, j := range myIdx {
		localCol[j] = cj
	}
	// The step-k message: the pivot row index, then the multipliers
	// l_ik for i = k+1..n-1.
	w := wire.NewWriter(8 * n)
	mult := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		owner := k % p
		w.Reset()
		if owner == c.ID() {
			col := myCols[localCol[k]*n:]
			piv, pmax := k, math.Abs(col[k])
			for i := k + 1; i < n; i++ {
				if v := math.Abs(col[i]); v > pmax {
					piv, pmax = i, v
				}
			}
			if pmax == 0 {
				// Mark singularity for everyone via an out-of-range pivot.
				piv = -1
			} else {
				if piv != k {
					col[k], col[piv] = col[piv], col[k]
				}
				d := col[k]
				for i := k + 1; i < n; i++ {
					col[i] /= d
				}
			}
			w.Int(piv)
			for _, l := range col[k+1 : n] {
				w.Float64(l)
			}
			c.AddWork(n - k)
		}
		r := wire.NewReader(collect.Broadcast(c, owner, w.Bytes()))
		piv := r.Int()
		if piv < 0 {
			return nil, fmt.Errorf("lu: singular at column %d", k)
		}
		if piv != k {
			perm[k], perm[piv] = perm[piv], perm[k]
		}
		mult = mult[:0]
		for r.Remaining() > 0 {
			mult = append(mult, r.Float64())
		}
		// Apply the row swap to every owned column except the owner's
		// column k (already swapped before scaling) — partial pivoting
		// permutes the finished L columns too — then the rank-1 update
		// to columns right of k.
		for cj, j := range myIdx {
			col := myCols[cj*n:]
			if j != k && piv != k {
				col[k], col[piv] = col[piv], col[k]
			}
			if j <= k {
				continue
			}
			akj := col[k]
			if akj == 0 {
				continue
			}
			for i := k + 1; i < n; i++ {
				col[i] -= mult[i-k-1] * akj
			}
			c.AddWork(n - k)
		}
	}
	return perm, nil
}
