package ocean

import (
	"math"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// The multigrid hierarchy is cell-centred at every level: level l has
// m_l = m/2^l cells a side, spacing h_l = 1/m_l, unknowns at the cell
// centres ((i−½)h_l, (j−½)h_l), and the ψ = 0 wall half a cell outside
// the first and last unknown. The wall is enforced by a reflected ghost
// (ghost = −neighbour), which in the 5-point operator is a diagonal of
// 4 + #wall sides over the stored, always-zero boundary cells. A coarse
// cell is exactly the union of four fine cells, so full weighting over
// 2×2 blocks and 9/3/3/1 bilinear interpolation are the exact transfers
// for this grid and the V-cycle's convergence factor does not depend on m.
//
// Levels below the finest with m_l ≤ aggM are agglomerated: a whole
// level is then at most aggM² cells — one small message — while
// relaxing it in strips costs six or more supersteps of a few cells
// each, so Equation 1 says to pay the W and save the L·S. Rank 0 solves
// those levels on full slabs with this same solver bound to a machine
// that never communicates; one gather superstep carries the restricted
// right-hand side there and the prolongation's coarse-to-fine superstep
// carries the correction back. The threshold is a property of the grid
// alone, so the superstep schedule — and with it S and every computed
// bit — is the same at every process count.
//
// A V-cycle thus spends 6 supersteps on each of its L strip levels —
// one per smoothing iteration (two before the coarse correction, one
// after) and the residual's, the restriction's and the prolongation's
// exchanges — and one on the gather. With a residual check (exchange
// and all-reduce) before each of c cycles and after the last, and the
// timestep's ψ and vorticity exchanges and |f|∞ all-reduce, a timestep
// costs S = 5 + c·(3 + 6L) (TestSuperstepsClosedForm).
const (
	minM = 4  // coarsest level
	aggM = 16 // levels this small (below the finest) live on rank 0
)

// machine abstracts the BSP operations the solver needs, so the
// identical numerical code runs sequentially (no-op communication: the
// single slab holds every row) and in parallel (halo supersteps and a
// max all-reduce).
type machine interface {
	// post queues, for the superstep the next sync ends, the cells of
	// colour cells (allCells: every column) of each owned row of s that
	// lies within depth rows of another process's strip, addressed to
	// that process, whose halo of field fid stores them.
	post(fid int, s *slab, depth, cells int)
	// sync ends a superstep: every posted row reaches its readers.
	sync()
	// exchangeToFine performs one superstep in which every row R of
	// owned is sent to the owners of fine rows 2R-2 .. 2R+1 (fine
	// interior is 2×coarse), the rows whose prolongation stencils read
	// R. The neighbor ghost exchange cannot satisfy this dependency
	// when the coarse level is partitioned differently from the fine
	// one. owned is nil on a process that owns no rows of the level.
	exchangeToFine(fid int, owned *slab)
	// gather performs one superstep in which every owned row of s is
	// sent to rank 0, whose full slab registered under fid absorbs it.
	gather(fid int, s *slab)
	// maxAll returns the global maximum of x (one superstep).
	maxAll(x float64) float64
	// keep names the variables that hold the rank's restartable state,
	// as core.Proc.Keep does; the sequential machines keep nothing.
	keep(ptrs ...any)
	// work reports n abstract work units (grid-cell updates) for the
	// current superstep.
	work(n int)
}

// The colours of the red-black ordering: a half-sweep of colour k
// updates the cells (r, c) with r+c+k odd, so row r's cells of colour k
// start at column 1+(r+k)%2 and every second column follows.
const (
	red, black = 0, 1
	allCells   = -1
)

// exchange is one superstep that refreshes the one-row halo of field
// fid, every column, from the rows' owners.
func exchange(mc machine, fid int, s *slab) {
	mc.post(fid, s, 1, allCells)
	mc.sync()
}

// seqMachine runs the solver on a single process: slabs span all rows,
// so the only ghosts are the cells beyond the wall and exchanges are
// no-ops.
type seqMachine struct{}

func (seqMachine) post(int, *slab, int, int) {}
func (seqMachine) sync()                     {}
func (seqMachine) exchangeToFine(int, *slab) {}
func (seqMachine) gather(int, *slab)         {}
func (seqMachine) maxAll(x float64) float64  { return x }
func (seqMachine) keep(...any)               {}
func (seqMachine) work(int)                  {}

// rootMachine is the seqMachine of rank 0's agglomerated levels: no
// communication, but the cell updates still count as rank 0's work.
type rootMachine struct {
	seqMachine
	c *core.Proc
}

func (m rootMachine) work(n int) { m.c.AddWork(n) }

// bspMachine binds the solver to a BSP process.
type bspMachine struct {
	c       *core.Proc
	p       int
	fieldOf []*slab // by fid
	// out holds the records queued for each destination, in a writer
	// made on first use with room for outCap bytes.
	out    []*wire.Writer
	outCap int
}

// newBSPMachine binds a process whose finest level is m cells wide.
// Writers start with room for the largest message the smoothing
// exchange sends one neighbor there — two black half-rows of u and a red
// half-row of f, 3·m/2 records — so halo traffic never grows them.
func newBSPMachine(c *core.Proc, m int) *bspMachine {
	return &bspMachine{c: c, p: c.P(), out: make([]*wire.Writer, c.P()), outCap: 3 * m / 2 * 16}
}

func (m *bspMachine) register(fid int, s *slab) {
	for len(m.fieldOf) <= fid {
		m.fieldOf = append(m.fieldOf, nil)
	}
	m.fieldOf[fid] = s
}

// sync implements machine: it posts the records queued for each
// destination, synchronizes, and stores every 16-byte (row|fid, col,
// value) record received into the field and row it names. Senders
// address only rows the receiver stores.
func (m *bspMachine) sync() {
	for q, w := range m.out {
		if w != nil && w.Len() > 0 {
			m.c.Send(q, w.Bytes())
			w.Reset()
		}
	}
	m.c.Sync()
	for {
		msg, ok := m.c.Recv()
		if !ok {
			return
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			tag := r.Uint32()
			col := r.Uint32()
			m.fieldOf[tag>>20].row(int(tag & 0xFFFFF))[col] = r.Float64()
		}
	}
}

// post implements machine. Strips are contiguous, so the processes
// whose depth-row halo holds row r are exactly the other owners of rows
// r-depth .. r+depth, met in non-decreasing order.
func (m *bspMachine) post(fid int, s *slab, depth, cells int) {
	for r := s.lo; r < s.hi; r++ {
		if r == s.lo+depth && r < s.hi-depth {
			r = s.hi - depth // rows this deep inside the strip have no reader
		}
		last := -1
		for n := max(r-depth, 1); n <= min(r+depth, s.m); n++ {
			if q := ownerOfRow(s.m, m.p, n); q != last {
				last = q
				m.sendRow(fid, s, r, q, cells)
			}
		}
	}
}

// sendRow queues row's cells of colour cells (allCells: every column)
// for dst; a row addressed to this process stays put.
func (m *bspMachine) sendRow(fid int, s *slab, row, dst, cells int) {
	if dst == m.c.ID() {
		return
	}
	w := m.out[dst]
	if w == nil {
		w = wire.NewWriter(m.outCap)
		m.out[dst] = w
	}
	vals := s.row(row)
	tag := uint32(row) | uint32(fid)<<20
	c0, step := 1, 1
	if cells != allCells {
		c0, step = 1+(row+cells)%2, 2
	}
	for c := c0; c <= s.m; c += step {
		w.Uint32(tag)
		w.Uint32(uint32(c))
		w.Float64(vals[c])
	}
}

func (m *bspMachine) exchangeToFine(fid int, owned *slab) {
	if owned != nil {
		fineM := 2 * owned.m
		for r := owned.lo; r < owned.hi; r++ {
			// Owners are non-decreasing in the fine row, so comparing
			// with the previous one is enough to send each once.
			last := -1
			for fr := max(2*r-2, 1); fr <= min(2*r+1, fineM); fr++ {
				if q := ownerOfRow(fineM, m.p, fr); q != last {
					last = q
					m.sendRow(fid, owned, r, q, allCells)
				}
			}
		}
	}
	m.sync()
}

func (m *bspMachine) gather(fid int, s *slab) {
	for r := s.lo; r < s.hi; r++ {
		m.sendRow(fid, s, r, 0, allCells)
	}
	m.sync()
}

func (m *bspMachine) maxAll(x float64) float64 {
	return collect.AllReduce(m.c, x, collect.MaxFloat)
}

func (m *bspMachine) keep(ptrs ...any) { m.c.Keep(ptrs...) }

func (m *bspMachine) work(n int) { m.c.AddWork(n) }

// level is one multigrid level: solution u, right-hand side f, residual r.
type level struct {
	m       int
	h2      float64 // grid spacing squared
	u, f, r *slab
	// fNew reports that f changed since its halo last travelled, and
	// uZero that u is zero everywhere, halo included; smooth's exchange
	// reads both to send only what its neighbors lack.
	fNew, uZero bool
}

// walls returns how many of index i's two neighbors along one axis lie
// across the wall (m ≥ minM, so at most one).
func (lv *level) walls(i int) int {
	if i == 1 || i == lv.m {
		return 1
	}
	return 0
}

// invDiag[k] is the reciprocal of the operator's diagonal at a cell with
// k wall sides.
var invDiag = [3]float64{1.0 / 4, 1.0 / 5, 1.0 / 6}

// fids for a level's three fields.
func fidU(l int) int { return 3 * l }
func fidF(l int) int { return 3*l + 1 }
func fidR(l int) int { return 3*l + 2 }

// solver carries the multigrid hierarchy for one process.
type solver struct {
	mc     machine
	p, q   int
	levels []*level
	// agglom reports that the last entry of levels is agglomerated: it
	// is this process's strip of the restricted right-hand side and of
	// the correction coming back, and whole, on rank 0 only, is the
	// solver for that level and everything coarser. There, the last
	// entry of levels is whole's finest level itself.
	agglom bool
	whole  *solver
	// preSmooth/postSmooth are red-black Gauss-Seidel iteration counts.
	preSmooth, postSmooth, coarseSweeps int
	tol                                 float64
	maxCycles                           int
	// res and target are the residual max-norm and the tolerance it was
	// held against at Solve's last convergence check.
	res, target float64
}

// newSolver builds the hierarchy for interior size m split across p
// processes, with this process at rank q. Coarsening always stops at a
// minM×minM interior and, on a BSP machine, always agglomerates from
// the first level below the finest that is no wider than aggM, so the
// superstep structure — and hence S and the computed fields — is
// identical at every process count.
func newSolver(mc machine, m, p, q int) *solver {
	s := &solver{mc: mc, p: p, q: q, preSmooth: 2, postSmooth: 1, coarseSweeps: 6, tol: tol, maxCycles: 25}
	bm, _ := mc.(*bspMachine)
	for lm := m; lm >= minM && !s.agglom; lm /= 2 {
		l := len(s.levels)
		s.agglom = bm != nil && l > 0 && lm <= aggM
		var lv *level
		if s.agglom && q == 0 {
			s.whole = newSolver(rootMachine{c: bm.c}, lm, 1, 0)
			lv = s.whole.levels[0]
		} else {
			lo, hi := rowRange(lm, p, q)
			lv = &level{m: lm, h2: 1 / float64(lm*lm),
				u: newSlab(lm, lo, hi), f: newSlab(lm, lo, hi), r: newSlab(lm, lo, hi)}
		}
		s.levels = append(s.levels, lv)
		if bm != nil {
			bm.register(fidU(l), lv.u)
			bm.register(fidF(l), lv.f)
			bm.register(fidR(l), lv.r)
		}
	}
	return s
}

// smooth runs iters red-black Gauss-Seidel iterations on level l, one
// superstep each. The exchange that opens an iteration brings the black
// cells of u's two-row halo (and, the first time after f changed, the
// red cells of f's one-row halo). The process then relaxes the red cells
// of its owned rows and of the first halo row on each side — the same
// expression on the same inputs as that row's owner, so the same bits —
// and then the black cells of its owned rows, whose every red neighbor
// it now holds. The halo rows' relaxations are the W traded for half
// the exchanges, and they count as work.
func (s *solver) smooth(l, iters int) {
	lv := s.levels[l]
	u := lv.u
	lo, hi := u.lo, u.hi
	if lo < hi {
		lo, hi = max(lo-1, 1), min(hi+1, lv.m+1)
	}
	for i := 0; i < iters; i++ {
		if lv.fNew {
			s.mc.post(fidF(l), lv.f, 1, red)
			lv.fNew = false
		}
		if !lv.uZero {
			s.mc.post(fidU(l), u, 2, black)
		}
		lv.uZero = false
		s.mc.sync()
		for r := lo; r < hi; r++ {
			lv.relaxRow(r, red)
		}
		for r := u.lo; r < u.hi; r++ {
			lv.relaxRow(r, black)
		}
		s.mc.work((hi - lo + u.hi - u.lo) * lv.m / 2)
	}
}

// relaxRow updates the cells of colour k in row r of u.
func (lv *level) relaxRow(r, k int) {
	up, me, dn := lv.u.row(r-1), lv.u.row(r), lv.u.row(r+1)
	fr := lv.f.row(r)
	// The first and last columns have one more wall side than the rest
	// of the row; peeling them keeps the inner loop branch-free.
	inv, invWall := invDiag[lv.walls(r)], invDiag[lv.walls(r)+1]
	c := 1 + (r+k)%2
	if c == 1 {
		me[1] = relaxed(up, me, dn, fr, 1, lv.h2, invWall)
		c = 3
	}
	for ; c < lv.m; c += 2 {
		me[c] = relaxed(up, me, dn, fr, c, lv.h2, inv)
	}
	if c == lv.m {
		me[c] = relaxed(up, me, dn, fr, c, lv.h2, invWall)
	}
}

// relaxed returns the Gauss-Seidel value of cell c of row me, given the
// reciprocal of the operator's diagonal there.
func relaxed(up, me, dn, fr []float64, c int, h2, inv float64) float64 {
	return (up[c] + dn[c] + me[c-1] + me[c+1] - h2*fr[c]) * inv
}

// computeResidual fills r = f - A·u on level l (one exchange superstep
// for u).
func (s *solver) computeResidual(l int) {
	lv := s.levels[l]
	exchange(s.mc, fidU(l), lv.u)
	inv := 1 / lv.h2
	for r := lv.u.lo; r < lv.u.hi; r++ {
		up, me, dn := lv.u.row(r-1), lv.u.row(r), lv.u.row(r+1)
		fr, rr := lv.f.row(r), lv.r.row(r)
		wr := lv.walls(r)
		for c := 1; c <= lv.m; c++ {
			rr[c] = fr[c] - (up[c]+dn[c]+me[c-1]+me[c+1]-float64(4+wr+lv.walls(c))*me[c])*inv
		}
	}
	s.mc.work((lv.u.hi - lv.u.lo) * lv.m)
}

// restrictTo transfers the fine residual on level l to the rhs of level
// l+1 by full weighting over 2×2 blocks (one exchange superstep for r).
// Each process fills its strip of the coarse rows; on rank 0 of an
// agglomerated level that strip is part of the full slab the gather
// completes.
func (s *solver) restrictTo(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	exchange(s.mc, fidR(l), fine.r)
	coarse.u.zero()
	coarse.fNew, coarse.uZero = true, true
	lo, hi := rowRange(coarse.m, s.p, s.q)
	for R := lo; R < hi; R++ {
		r0, r1 := fine.r.row(2*R-1), fine.r.row(2*R)
		fr := coarse.f.row(R)
		for C := 1; C <= coarse.m; C++ {
			fr[C] = 0.25 * (r0[2*C-1] + r0[2*C] + r1[2*C-1] + r1[2*C])
		}
	}
	s.mc.work((hi - lo) * coarse.m)
}

// interpolated returns the 9/3/3/1 blend of coarse column C and its
// neighbor Cn in row cu and its neighbor row cn, whose values carry the
// signs sc and sr.
func interpolated(cu, cn []float64, C, Cn int, sr, sc float64) float64 {
	return 0.5625*cu[C] + 0.1875*(sr*cn[C]+sc*cu[Cn]) + 0.0625*sr*sc*cn[Cn]
}

// prolongFrom adds the coarse correction on level l+1 into level l's
// solution by bilinear interpolation between cell centres (weights
// 9/16, 3/16, 3/16, 1/16), preceded by one coarse-to-fine exchange
// superstep. A neighbor across the wall is the reflected ghost: the
// cell itself, negated.
func (s *solver) prolongFrom(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	owned := coarse.u
	if s.agglom && l+2 == len(s.levels) && s.whole == nil {
		owned = nil // an agglomerated level lives on rank 0 alone
	}
	s.mc.exchangeToFine(fidU(l+1), owned)
	for r := fine.u.lo; r < fine.u.hi; r++ {
		R := (r + 1) / 2
		// The vertical neighbor is the coarse row on the same side of
		// R's center as the fine row: below for odd r, above for even.
		cu := coarse.u.row(R)
		cn, sr := coarse.u.mirror(R, 1-2*(r%2))
		fu := fine.u.row(r)
		// Horizontally likewise: coarse column C and its neighbor on
		// c's side, which for the first and last fine column is the wall.
		fu[1] += interpolated(cu, cn, 1, 1, sr, -1)
		for c := 2; c < fine.m; c++ {
			C := (c + 1) / 2
			fu[c] += interpolated(cu, cn, C, C+1-2*(c%2), sr, 1)
		}
		fu[fine.m] += interpolated(cu, cn, coarse.m, coarse.m, sr, -1)
	}
	s.mc.work((fine.u.hi - fine.u.lo) * fine.m)
}

// vcycle runs one V-cycle from level l.
func (s *solver) vcycle(l int) {
	if l == len(s.levels)-1 {
		if !s.agglom {
			s.smooth(l, s.coarseSweeps)
			return
		}
		s.mc.gather(fidF(l), s.levels[l].f)
		if s.whole != nil {
			s.whole.vcycle(0)
		}
		return
	}
	s.smooth(l, s.preSmooth)
	s.computeResidual(l)
	s.restrictTo(l)
	s.vcycle(l + 1)
	s.prolongFrom(l)
	s.smooth(l, s.postSmooth)
}

// residualNorm returns the global max-norm of the fine-level residual
// (two supersteps: exchange + all-reduce).
func (s *solver) residualNorm() float64 {
	s.computeResidual(0)
	lv := s.levels[0]
	local := 0.0
	for r := lv.r.lo; r < lv.r.hi; r++ {
		rr := lv.r.row(r)
		for c := 1; c <= lv.m; c++ {
			local = math.Max(local, math.Abs(rr[c]))
		}
	}
	s.mc.work((lv.r.hi - lv.r.lo) * lv.m)
	return s.mc.maxAll(local)
}

// Solve runs V-cycles until the residual max-norm falls to
// tol·max(|f|∞, 1e-300) or below; it returns the cycle count and
// whether that happened within maxCycles. The verdict rests on
// all-reduced norms alone, so every process reaches the same one. The
// rhs must already be loaded into level 0's f and an initial guess into
// level 0's u.
func (s *solver) Solve() (cycles int, converged bool) {
	lv := s.levels[0]
	fmax := 0.0
	for r := lv.f.lo; r < lv.f.hi; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= lv.m; c++ {
			fmax = math.Max(fmax, math.Abs(fr[c]))
		}
	}
	fmax = s.mc.maxAll(fmax)
	lv.fNew = true // the caller loaded f
	s.target = s.tol * math.Max(fmax, 1e-300)
	for ; ; cycles++ {
		if s.res = s.residualNorm(); s.res <= s.target {
			return cycles, true
		}
		if cycles == s.maxCycles {
			return cycles, false
		}
		s.vcycle(0)
	}
}
