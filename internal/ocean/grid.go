// Package ocean implements the paper's ocean eddy simulation (§3.1),
// converted from the SPLASH suite: "The program computes ocean eddy
// currents using a multigrid technique on an underlying grid." The
// computational core retained here is the SPLASH Ocean skeleton — 5-point
// stencil updates (vorticity, Arakawa-style Jacobian, wind forcing)
// followed by a red-black Gauss-Seidel multigrid solve of the stream
// function to tolerance, on an (n+2)×(n+2) grid with fixed boundary.
//
// The grid is cell-centred: the unit square is cut into n×n cells, the
// unknowns sit at the cell centres ((i−½)h, (j−½)h) with h = 1/n, and
// the ψ = 0 wall runs along the cell faces, half a cell outside the
// first and last unknown. Rows and columns 0 and n+1 of the stored grid
// are ghost cells, not wall nodes: they are kept at zero and the wall is
// enforced by reflection (ghost = −neighbour) inside the stencils. The
// same holds at every multigrid level, which is what makes the
// hierarchy consistent (see solver.go).
//
// Parallelization is by horizontal strips at every multigrid level wider
// than 16 cells. Each red-black Gauss-Seidel iteration, residual,
// restriction and prolongation is preceded by one ghost-row exchange
// superstep, and the convergence check is a max-norm all-reduce. An
// iteration needs only one exchange because its halo is two rows deep:
// a process relaxes the red cells of its first ghost row on each side
// itself, as that row's owner does. Coarser levels are solved whole on
// rank 0 (solver.go says why the threshold depends on the grid and never
// on p). Ghost values travel as 16-byte (row|field, col, value) records
// — one Green BSP packet per element.
//
// Because red-black relaxation is order-independent within a color, a
// ghost row is relaxed by the same expression on the same inputs as its
// owner's, and the convergence reduction is an exact max, the parallel
// solver computes bit-identical fields to the sequential one at every
// process count — the property the correctness tests assert.
package ocean

import "fmt"

// slab holds one process's rows of one (m+2)×(m+2) grid level: owned
// interior rows [lo, hi) plus a two-row halo on each side (the smoother
// reads two ghost rows deep, and bilinear prolongation reads one coarse
// row beyond the ghost). Global rows are 1-based for the interior; rows
// 0 and m+1 are the ghost cells beyond the wall, always zero.
type slab struct {
	m      int // interior dimension
	lo, hi int // owned global interior rows, lo <= r < hi
	vals   []float64
}

// slabHalo is the number of halo rows stored on each side.
const slabHalo = 2

func newSlab(m, lo, hi int) *slab {
	rows := hi - lo + 2*slabHalo
	if rows < 2*slabHalo {
		rows = 2 * slabHalo
	}
	return &slab{m: m, lo: lo, hi: hi, vals: make([]float64, rows*(m+2))}
}

// row returns the storage for global row g, valid for lo-2 <= g <= hi+1.
func (s *slab) row(g int) []float64 {
	i := g - (s.lo - slabHalo)
	return s.vals[i*(s.m+2) : (i+1)*(s.m+2)]
}

// mirror returns the row next to interior row g in direction d (±1) and
// the sign its values carry: the stored row, or across the wall the
// reflected ghost — row g itself, negated.
func (s *slab) mirror(g, d int) ([]float64, float64) {
	if n := g + d; n >= 1 && n <= s.m {
		return s.row(n), 1
	}
	return s.row(g), -1
}

// zero clears all stored values.
func (s *slab) zero() {
	for i := range s.vals {
		s.vals[i] = 0
	}
}

// rowRange returns the owned rows of process q for an m-row interior
// split proportionally across p processes.
func rowRange(m, p, q int) (lo, hi int) {
	return m*q/p + 1, m*(q+1)/p + 1
}

// ownerOfRow returns the process owning interior row r (1-based).
func ownerOfRow(m, p, r int) int {
	q := (r - 1) * p / m
	// Guard against integer rounding at chunk boundaries.
	for {
		lo, hi := rowRange(m, p, q)
		if r < lo {
			q--
		} else if r >= hi {
			q++
		} else {
			return q
		}
	}
}

// checkGrid validates the paper's size convention: size = n+2 where the
// interior n is a power of two (66, 130, 258, 514 → 64, 128, 256, 512).
func checkGrid(size int) (int, error) {
	m := size - 2
	if m < 4 || m&(m-1) != 0 {
		return 0, fmt.Errorf("ocean: size must be 2^k+2 with k >= 2, got %d", size)
	}
	return m, nil
}
