package ocean

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/collect"
	"repro/internal/core"
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
// relaxing it in strips costs four or more supersteps of a few cells
// each, so Equation 1 says to pay the W and save the L·S. One
// all-gather superstep hands every rank that owns rows the whole
// restricted right-hand side, and each such rank solves those levels on
// full slabs with this same solver bound to a machine that never
// communicates. Every such rank then holds the whole correction, so the
// last strip level prolongs it with no superstep. (A correction
// scattered from one rank instead would cost a superstep, and rank 0
// would send each coarse row to the owners of up to eight fine rows,
// the prolonged ghost rows included: 1 136 packets at p = 16, above the
// 4·16² of the whole level.) The threshold
// is a property of the grid alone, so the superstep schedule — and with
// it S and every computed bit — is the same at every process count.
//
// A V-cycle thus spends 4 supersteps on each of its L strip levels: two
// smoothing iterations before the coarse correction, the residual's
// exchange — which also carries the black cells of u's second ghost row,
// so that the one post-smoothing iteration, after a prolongation that
// updates the ghost rows too, needs no exchange — and the prolongation's
// coarse-to-fine exchange, or on the last strip level the all-gather.
// Restriction is local because the strips nest (see strips). A residual
// check (exchange and all-reduce) runs before each of c cycles and after
// the last; its exchange is the one level 0's first smoothing iteration
// reads, so that iteration syncs only in the first cycle, to carry f's
// new halo. With the timestep's ψ and vorticity exchanges and |f|∞
// all-reduce, a timestep costs S = 5 + [c>0] + c·(1 + 4L)
// (TestSuperstepsClosedForm).
const (
	minM = 4  // coarsest level
	aggM = 16 // levels this small (below the finest) are solved whole on every rank
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
	// allGather performs one superstep in which this process's strip of
	// the whole slab s, registered under fid, is sent to every other
	// process that owns rows, whose copy of s absorbs it.
	allGather(fid int, s *slab)
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

// exchange is one superstep that refreshes the depth-row halo of field
// fid, every column, from the rows' owners.
func exchange(mc machine, fid int, s *slab, depth int) {
	mc.post(fid, s, depth, allCells)
	mc.sync()
}

// seqMachine runs the solver on a single process: slabs span all rows,
// so the only ghosts are the cells beyond the wall and exchanges are
// no-ops.
type seqMachine struct{}

func (seqMachine) post(int, *slab, int, int) {}
func (seqMachine) sync()                     {}
func (seqMachine) allGather(int, *slab)      {}
func (seqMachine) maxAll(x float64) float64  { return x }
func (seqMachine) keep(...any)               {}
func (seqMachine) work(int)                  {}

// localMachine is the seqMachine of a rank's agglomerated levels: no
// communication, but the cell updates still count as the rank's work.
type localMachine struct {
	seqMachine
	c *core.Proc
}

func (m localMachine) work(n int) { m.c.AddWork(n) }

// bspMachine binds the solver to a BSP process.
type bspMachine struct {
	c       *core.Proc
	p       int
	strips  strips
	fieldOf []*slab // by fid
	// out holds the records queued for each destination, in a buffer
	// made on first use with room for outCap bytes.
	out    [][]byte
	outCap int
}

// newBSPMachine binds a process whose finest level is m cells wide.
// Outboxes start with room for the largest message a halo exchange
// sends one neighbor there — the two whole rows of the prolongation's
// coarse halo, or of u's black half-rows plus a red one, at most 3·m/2
// records — so halo traffic never grows them.
func newBSPMachine(c *core.Proc, m int) *bspMachine {
	return &bspMachine{c: c, p: c.P(), strips: newStrips(m, c.P()), out: make([][]byte, c.P()), outCap: 3 * m / 2 * recSize}
}

// recSize is the size of a halo record on the wire: the row|fid tag and
// the column as little-endian uint32s, then the value's IEEE bits as a
// little-endian uint64.
const recSize = 16

func (m *bspMachine) register(fid int, s *slab) {
	for len(m.fieldOf) <= fid {
		m.fieldOf = append(m.fieldOf, nil)
	}
	m.fieldOf[fid] = s
}

// sync implements machine: it posts the records queued for each
// destination, synchronizes, and stores every (row|fid, col, value)
// record received into the field and row it names. Senders address only
// rows the receiver stores, a row's records at a time, so the row is
// looked up once per run of equal tags.
func (m *bspMachine) sync() {
	for q, b := range m.out {
		if len(b) > 0 {
			m.c.Send(q, b)
			m.out[q] = b[:0]
		}
	}
	m.c.Sync()
	for {
		msg, ok := m.c.Recv()
		if !ok {
			return
		}
		var row []float64
		var tag uint32
		for ; len(msg) >= recSize; msg = msg[recSize:] {
			if t := binary.LittleEndian.Uint32(msg); row == nil || t != tag {
				tag, row = t, m.fieldOf[t>>20].row(int(t&0xFFFFF))
			}
			row[binary.LittleEndian.Uint32(msg[4:])] = math.Float64frombits(binary.LittleEndian.Uint64(msg[8:recSize]))
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
			if q := m.strips.owner(s.m, n); q != last {
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
	vals := s.row(row)
	tag := uint32(row) | uint32(fid)<<20
	c0, step := 1, 1
	if cells != allCells {
		c0, step = 1+(row+cells)%2, 2
	}
	b := m.out[dst]
	if b == nil {
		b = make([]byte, 0, m.outCap)
	}
	at, n := len(b), ((s.m-c0)/step+1)*recSize
	b = slices.Grow(b, n)[:at+n]
	for c := c0; c <= s.m; c += step {
		rec := b[at : at+recSize]
		binary.LittleEndian.PutUint32(rec, tag)
		binary.LittleEndian.PutUint32(rec[4:], uint32(c))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(vals[c]))
		at += recSize
	}
	m.out[dst] = b
}

// allGather implements machine. A rank that owns no rows has nothing to
// prolong the agglomerated solve into, so it is sent nothing.
func (m *bspMachine) allGather(fid int, s *slab) {
	lo, hi := m.strips.rows(s.m, m.c.ID())
	for q := 0; q < m.p; q++ {
		if qlo, qhi := m.strips.rows(s.m, q); qlo == qhi {
			continue
		}
		for r := lo; r < hi; r++ {
			m.sendRow(fid, s, r, q, allCells)
		}
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
	// halo records which of the halo cells the smoother and the residual
	// read hold their owners' current values.
	halo halo
}

// halo is a set of halo cells of a level, which every rank tracks
// identically, so that each exchange sends only the cells the next
// local step reads and lacks, and a step that lacks none skips its
// superstep on every rank alike.
type halo uint8

const (
	uRed   halo = 1 << iota // u's first ghost row, red cells
	uBlack                  // u's two ghost rows, black cells
	fRed                    // f's first ghost row, red cells
)

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

// fids for a level's two exchanged fields; the residual never travels.
func fidU(l int) int { return 2 * l }
func fidF(l int) int { return 2*l + 1 }

// solver carries the multigrid hierarchy for one process.
type solver struct {
	mc     machine
	levels []*level
	// agglom reports that the last entry of levels is agglomerated: it
	// is whole's finest level, where whole is this process's solver for
	// that level and everything coarser. The process restricts into its
	// own strip of it, and the all-gather fills in the rest.
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

// newSolver builds the hierarchy for interior size m; a BSP machine
// splits it into its strips. Coarsening always stops at a minM×minM
// interior and, on a BSP machine, always agglomerates from the first
// level below the finest that is no wider than aggM, so the superstep
// structure — and hence S and the computed fields — is identical at
// every process count.
func newSolver(mc machine, m int) *solver {
	s := &solver{mc: mc, preSmooth: 2, postSmooth: 1, coarseSweeps: 6, tol: tol, maxCycles: 25}
	bm, _ := mc.(*bspMachine)
	for lm := m; lm >= minM && !s.agglom; lm /= 2 {
		l := len(s.levels)
		s.agglom = bm != nil && l > 0 && lm <= aggM
		var lv *level
		if s.agglom {
			s.whole = newSolver(localMachine{c: bm.c}, lm)
			lv = s.whole.levels[0]
		} else {
			lo, hi := 1, lm+1
			if bm != nil {
				lo, hi = bm.strips.rows(lm, bm.c.ID())
			}
			lv = &level{m: lm, h2: 1 / float64(lm*lm),
				u: newSlab(lm, lo, hi), f: newSlab(lm, lo, hi), r: newSlab(lm, lo, hi)}
		}
		s.levels = append(s.levels, lv)
		if bm != nil {
			bm.register(fidU(l), lv.u)
			bm.register(fidF(l), lv.f)
		}
	}
	return s
}

// refresh makes the halo cells want of level l current, in one
// superstep that posts those that are not, or in none if all are.
func (s *solver) refresh(l int, want halo) {
	lv := s.levels[l]
	miss := want &^ lv.halo
	if miss == 0 {
		return
	}
	if miss&uRed != 0 {
		s.mc.post(fidU(l), lv.u, 1, red)
	}
	if miss&uBlack != 0 {
		s.mc.post(fidU(l), lv.u, 2, black)
	}
	if miss&fRed != 0 {
		s.mc.post(fidF(l), lv.f, 1, red)
	}
	s.mc.sync()
	lv.halo |= miss
}

// smooth runs iters red-black Gauss-Seidel iterations on level l. An
// iteration reads the black cells of u's two-row halo and the red cells
// of f's one-row halo, and opens with the superstep that brings those
// that are not current (see refresh). The process then relaxes the red
// cells of its owned rows and of the first halo row on each side — the
// same expression on the same inputs as that row's owner, so the same
// bits — and then the black cells of its owned rows, whose every red
// neighbor it now holds. The halo rows' relaxations are the W traded
// for half the exchanges, and they count as work. Afterwards the red
// cells of the first halo row are current and the black cells are not.
func (s *solver) smooth(l, iters int) {
	lv := s.levels[l]
	u := lv.u
	lo, hi := u.lo, u.hi
	if lo < hi {
		lo, hi = max(lo-1, 1), min(hi+1, lv.m+1)
	}
	for i := 0; i < iters; i++ {
		s.refresh(l, uBlack|fRed)
		for r := lo; r < hi; r++ {
			lv.relaxRow(r, red)
		}
		for r := u.lo; r < u.hi; r++ {
			lv.relaxRow(r, black)
		}
		s.mc.work((hi - lo + u.hi - u.lo) * lv.m / 2)
		lv.halo = lv.halo&fRed | uRed
	}
}

// relaxRow updates the cells of colour k in row r of u.
func (lv *level) relaxRow(r, k int) {
	m, h2 := lv.m, lv.h2
	w := m + 2
	up, me, dn := lv.u.row(r - 1)[:w], lv.u.row(r)[:w], lv.u.row(r + 1)[:w]
	fr := lv.f.row(r)[:w]
	// The first and last columns have one more wall side than the rest
	// of the row; peeling them keeps the inner loop branch-free.
	inv, invWall := invDiag[lv.walls(r)], invDiag[lv.walls(r)+1]
	c := 1 + (r+k)%2
	if c == 1 {
		me[1] = relaxed(up, me, dn, fr, 1, h2, invWall)
		c = 3
	}
	for ; c < m; c += 2 {
		me[c] = relaxed(up, me, dn, fr, c, h2, inv)
	}
	if c == m {
		me[c] = relaxed(up, me, dn, fr, c, h2, invWall)
	}
}

// relaxed returns the Gauss-Seidel value of cell c of row me, given the
// reciprocal of the operator's diagonal there.
func relaxed(up, me, dn, fr []float64, c int, h2, inv float64) float64 {
	return (up[c] + dn[c] + me[c-1] + me[c+1] - h2*fr[c]) * inv
}

// stencil returns the 5-point Laplacian of row me at column c times
// h², given the operator's diagonal there.
func stencil(up, me, dn []float64, c int, diag float64) float64 {
	return up[c] + dn[c] + me[c-1] + me[c+1] - diag*me[c]
}

// computeResidual fills r = f - A·u on level l. It reads u's whole
// first ghost rows, and its exchange also brings the black cells of the
// second ones, which the smoothing iteration after it reads — after the
// coarse correction, or in the next cycle.
func (s *solver) computeResidual(l int) {
	lv := s.levels[l]
	s.refresh(l, uRed|uBlack)
	inv := 1 / lv.h2
	m := lv.m
	w := m + 2
	for r := lv.u.lo; r < lv.u.hi; r++ {
		up, me, dn := lv.u.row(r - 1)[:w], lv.u.row(r)[:w], lv.u.row(r + 1)[:w]
		fr, rr := lv.f.row(r)[:w], lv.r.row(r)[:w]
		wr := lv.walls(r)
		// Columns 1 and m have one more wall side than the rest.
		rr[1] = fr[1] - stencil(up, me, dn, 1, float64(4+wr+lv.walls(1)))*inv
		d := float64(4 + wr)
		for c := 2; c < m; c++ {
			rr[c] = fr[c] - stencil(up, me, dn, c, d)*inv
		}
		if m > 1 {
			rr[m] = fr[m] - stencil(up, me, dn, m, float64(4+wr+lv.walls(m)))*inv
		}
	}
	s.mc.work((lv.u.hi - lv.u.lo) * lv.m)
}

// restrictTo transfers the fine residual on level l to the rhs of level
// l+1 by full weighting over 2×2 blocks. The strips nest, so each
// process owns both fine rows of each coarse row in its strip and reads
// no halo; on an agglomerated level that strip is part of the whole slab
// the all-gather completes.
func (s *solver) restrictTo(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	coarse.u.zero()
	coarse.halo = uRed | uBlack // zero, as the owners' rows are
	lo, hi := (fine.r.lo+1)/2, (fine.r.hi+1)/2
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
// 9/16, 3/16, 3/16, 1/16). A neighbor across the wall is the reflected
// ghost: the cell itself, negated. The process prolongs its two ghost
// rows on each side too, by the owner's expression on the owner's
// inputs, so the halo cells that were current stay current; for that it
// reads the coarse rows two deep around its strip, which one exchange
// superstep brings — unless the coarse level is agglomerated, and whole
// here already.
func (s *solver) prolongFrom(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	if !s.agglom || l+2 < len(s.levels) {
		exchange(s.mc, fidU(l+1), coarse.u, 2)
	}
	lo, hi := fine.u.lo, fine.u.hi
	if lo < hi {
		lo, hi = max(lo-2, 1), min(hi+2, fine.m+1)
	}
	cm := coarse.m
	for r := lo; r < hi; r++ {
		R := (r + 1) / 2
		// The vertical neighbor is the coarse row on the same side of
		// R's center as the fine row: below for odd r, above for even.
		cu := coarse.u.row(R)[:cm+2]
		cn, sr := coarse.u.mirror(R, 1-2*(r%2))
		cn = cn[:cm+2]
		fu := fine.u.row(r)[:2*cm+2]
		// Horizontally likewise: fine column c lies in coarse column
		// (c+1)/2 and blends the neighbor on its side, which for the
		// first and last fine column is the wall. Fine columns 2C and
		// 2C+1 blend coarse columns C and C+1.
		fu[1] += interpolated(cu, cn, 1, 1, sr, -1)
		for C := 1; C < cm; C++ {
			fu[2*C] += interpolated(cu, cn, C, C+1, sr, 1)
			fu[2*C+1] += interpolated(cu, cn, C+1, C, sr, 1)
		}
		fu[2*cm] += interpolated(cu, cn, cm, cm, sr, -1)
	}
	s.mc.work((hi - lo) * fine.m)
}

// vcycle runs one V-cycle from level l.
func (s *solver) vcycle(l int) {
	if l == len(s.levels)-1 {
		if !s.agglom {
			s.smooth(l, s.coarseSweeps)
			return
		}
		s.mc.allGather(fidF(l), s.levels[l].f)
		if fine := s.levels[l-1].u; fine.lo < fine.hi {
			s.whole.vcycle(0) // a rank that owns no rows has no use for it
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
// (two supersteps: computeResidual's exchange + all-reduce).
func (s *solver) residualNorm() float64 {
	s.computeResidual(0)
	lv := s.levels[0]
	local := 0.0
	for r := lv.r.lo; r < lv.r.hi; r++ {
		rr := lv.r.row(r)
		for c := 1; c <= lv.m; c++ {
			local = maxAbs(local, rr[c])
		}
	}
	s.mc.work((lv.r.hi - lv.r.lo) * lv.m)
	return s.mc.maxAll(local)
}

// maxAbs returns max(acc, |v|) for acc ≥ +0, as math.Max would, and
// keeps a NaN once one is seen, so a NaN anywhere in a field fails the
// convergence check instead of vanishing from the norm.
func maxAbs(acc, v float64) float64 {
	if a := math.Abs(v); a > acc || a != a {
		return a
	}
	return acc
}

// Solve runs V-cycles until the residual max-norm falls to
// tol·max(|f|∞, 1e-300) or below; it returns the cycle count and
// whether that happened within maxCycles. A NaN norm ends the solve at
// once, unconverged: no V-cycle can bring it back. The verdict rests on
// all-reduced norms alone, so every process reaches the same one. The
// rhs must already be loaded into level 0's f, and an initial guess
// into level 0's u: its owned rows and its first ghost row on each side.
func (s *solver) Solve() (cycles int, converged bool) {
	lv := s.levels[0]
	fmax := 0.0
	for r := lv.f.lo; r < lv.f.hi; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= lv.m; c++ {
			fmax = maxAbs(fmax, fr[c])
		}
	}
	fmax = s.mc.maxAll(fmax)
	lv.halo = uRed // the caller loaded f, and u's first ghost rows
	s.target = s.tol * math.Max(fmax, 1e-300)
	for ; ; cycles++ {
		if s.res = s.residualNorm(); s.res <= s.target {
			return cycles, true
		}
		if cycles == s.maxCycles || s.res != s.res {
			return cycles, false
		}
		s.vcycle(0)
	}
}
