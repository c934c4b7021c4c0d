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
// than 16 cells, nested so that a coarse row's two fine rows have its
// owner (see strips). A V-cycle spends four supersteps on each strip
// level: two smoothing iterations, the residual's exchange, and the
// prolongation's coarse-to-fine exchange — or, below the last strip
// level, the all-gather that hands every rank the agglomerated level.
// Restriction and the post-smoothing iteration read only what the rank
// holds. A smoothing iteration needs one exchange because its halo is
// two rows deep: a process relaxes the red cells of its first ghost row
// on each side itself, as that row's owner does; likewise it prolongs
// its two ghost rows itself, so the one post-smoothing iteration reads
// the halo the residual's exchange delivered. A per-level record of the
// halo cells that are current (solver.go) lets each exchange send only
// what the next local step reads, and skip its superstep when that is
// nothing: level 0's first smoothing iteration syncs only in a solve's
// first cycle, to carry f's new halo. The convergence check is a
// max-norm all-reduce. Ghost values travel as 16-byte (row|field, col,
// value) records — one Green BSP packet per element.
//
// Because red-black relaxation is order-independent within a color, a
// ghost row is relaxed and prolonged by the same expression on the same
// inputs as its owner's, every rank's agglomerated solve is the same
// sequential code on the same data, and the convergence reduction is an
// exact max, the parallel solver computes bit-identical fields to the
// sequential one at every process count — the property the correctness
// tests assert.
package ocean

import "fmt"

// slab holds one process's rows of one (m+2)×(m+2) grid level: owned
// interior rows [lo, hi) plus a two-row halo on each side (the smoother
// reads two ghost rows deep, and prolonging the two ghost rows reads
// two coarse rows beyond the strip). Global rows are 1-based for the interior; rows
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

// strips is the row partition of a BSP solver's strip levels. The base
// level — the agglomerated one, or the finest if it has no coarser
// level — is split by rowRange, and each finer level's strips are the
// base strips scaled by its power of two. The partitions nest: a coarse
// row's two fine rows have its owner, so restriction reads no halo.
// Where p divides the base (from size 34 up the base is 16 rows, so
// p ∈ {1, 2, 4, 8, 16}) every level's strips are rowRange's own.
// Elsewhere that is the load-balance cost of nesting: strips differ by
// up to one base row scaled up, at every level (at size 130 and p = 3
// they are 40, 40 and 48 rows, not 42, 43 and 43; at p = 7, 16 to 24
// rows, not 18 or 19), and when p exceeds the base some ranks own no
// rows at all (at size 18 and p = 16, half of them): the all-gather
// sends those nothing, and they skip the agglomerated solve.
type strips struct{ base, p int }

// newStrips returns the partition across p processes of the hierarchy
// whose finest level is m cells wide (see newSolver).
func newStrips(m, p int) strips {
	base := m / 2
	for base > aggM {
		base /= 2
	}
	if base < minM {
		base = m
	}
	return strips{base, p}
}

// rows returns the owned rows [lo, hi) of process q on the m-row level.
func (s strips) rows(m, q int) (lo, hi int) {
	lo, hi = rowRange(s.base, s.p, q)
	k := m / s.base
	return (lo-1)*k + 1, (hi-1)*k + 1
}

// owner returns the process owning row r (1-based) of the m-row level.
func (s strips) owner(m, r int) int {
	return ownerOfRow(s.base, s.p, (r-1)/(m/s.base)+1)
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
