package ocean

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Config holds the simulation parameters.
type Config struct {
	// Size is the paper's grid size n+2 (66, 130, 258, 514): interior
	// n must be a power of two.
	Size int
	// Steps is the number of timesteps. 0 means 2.
	Steps int
}

func (c Config) steps() int {
	if c.Steps == 0 {
		return 2
	}
	return c.Steps
}

// The physical parameters.
const (
	// dt is the timestep.
	dt float64 = 0.05
	// windAmp is the wind-stress curl amplitude.
	windAmp float64 = 1
	// friction is the bottom-friction coefficient.
	friction float64 = 0.02
	// tol is the solver's relative residual tolerance.
	tol float64 = 5e-3
)

// Fields is the assembled result: the stream function on the full
// (m+2)×(m+2) grid, row-major.
type Fields struct {
	M   int
	Psi []float64
}

// At returns ψ(r, c).
func (f *Fields) At(r, c int) float64 { return f.Psi[r*(f.M+2)+c] }

// oceanSim is one process's simulation state.
type oceanSim struct {
	mc        machine
	sol       *solver
	psi, vort *slab
	cfg       Config
	m         int
	// windX[c-1] is windAmp·sin(πx) at column c's centre x: the wind
	// forcing's column factor, which no timestep changes.
	windX []float64
	// Cycles records the V-cycle count of each solve.
	Cycles []int
	// err is the first solve failure; it ends the run (on every process
	// in the same timestep, see solver.Solve).
	err error

	// start is the next timestep, kept across the ψ exchange that
	// opens it (see run).
	start int
}

func newOceanSim(mc machine, cfg Config, tol float64) (*oceanSim, error) {
	m, err := checkGrid(cfg.Size)
	if err != nil {
		return nil, err
	}
	s := &oceanSim{mc: mc, cfg: cfg, m: m, windX: make([]float64, m)}
	h := 1 / float64(m)
	for c := 1; c <= m; c++ {
		s.windX[c-1] = windAmp * sinPi((float64(c)-0.5)*h)
	}
	s.sol = newSolver(mc, m)
	s.sol.tol = tol
	lv0 := s.sol.levels[0] // ψ and vorticity live on level 0's strips
	s.psi = newSlab(m, lv0.u.lo, lv0.u.hi)
	// Vorticity is read only before the solve and the residual only
	// inside it, so they share a slab.
	s.vort = lv0.r
	if bm, ok := mc.(*bspMachine); ok {
		bm.register(s.fidPsi(), s.psi)
		bm.register(s.fidVort(), s.vort)
	}
	return s, nil
}

func (s *oceanSim) fidPsi() int  { return 2 * len(s.sol.levels) }
func (s *oceanSim) fidVort() int { return 2*len(s.sol.levels) + 1 }

// step advances the simulation through timestep i, whose ψ ghost
// rows run has just refreshed:
//
//	vort = ∇²ψ
//	rhs  = vort + dt·(wind − J(ψ, vort) − μ·vort)  (exchange for vort)
//	solve ∇²ψ' = rhs by multigrid, warm-started from ψ and its ghost rows
//
// ψ and vort vanish on the wall, so a neighbor across it is the
// reflected ghost (see grid.go). The error reports a solve that did not
// reach tolerance; every process returns it in the same timestep.
func (s *oceanSim) step(i int) error {
	m := s.m
	h := 1 / float64(m)
	h2 := h * h
	lv0 := s.sol.levels[0]
	w := m + 2
	for r := s.psi.lo; r < s.psi.hi; r++ {
		up, me, dn := s.psi.row(r - 1)[:w], s.psi.row(r)[:w], s.psi.row(r + 1)[:w]
		vr := s.vort.row(r)[:w]
		wr := lv0.walls(r)
		// Columns 1 and m have one more wall side than the rest.
		vr[1] = stencil(up, me, dn, 1, float64(4+wr+lv0.walls(1))) / h2
		d := float64(4 + wr)
		for c := 2; c < m; c++ {
			vr[c] = stencil(up, me, dn, c, d) / h2
		}
		if m > 1 {
			vr[m] = stencil(up, me, dn, m, float64(4+wr+lv0.walls(m))) / h2
		}
	}
	s.mc.work((s.psi.hi - s.psi.lo) * m)
	exchange(s.mc, s.fidVort(), s.vort, 1)
	windX := s.windX[:m]
	for r := s.psi.lo; r < s.psi.hi; r++ {
		pMe, vMe := s.psi.row(r)[:w], s.vort.row(r)[:w]
		pUp, su := s.psi.mirror(r, -1)
		pDn, sd := s.psi.mirror(r, +1)
		vUp, _ := s.vort.mirror(r, -1)
		vDn, _ := s.vort.mirror(r, +1)
		pUp, pDn, vUp, vDn = pUp[:w], pDn[:w], vUp[:w], vDn[:w]
		fr := lv0.f.row(r)[:w]
		sy := sinPi((float64(r) - 0.5) * h)
		for c := 1; c <= m; c++ {
			pl, pr, vl, vr := pMe[c-1], pMe[c+1], vMe[c-1], vMe[c+1]
			if c == 1 {
				pl, vl = -pMe[c], -vMe[c]
			}
			if c == m {
				pr, vr = -pMe[c], -vMe[c]
			}
			// Arakawa-style central-difference Jacobian J(ψ, ζ).
			px := (pr - pl) / (2 * h)
			py := (sd*pDn[c] - su*pUp[c]) / (2 * h)
			vx := (vr - vl) / (2 * h)
			vy := (sd*vDn[c] - su*vUp[c]) / (2 * h)
			jac := px*vy - py*vx
			wind := windX[c-1] * sy // windAmp·sinPi(x)·sinPi(y), evaluated left to right
			fr[c] = vMe[c] + dt*(wind-jac-friction*vMe[c])
		}
	}
	s.mc.work((s.psi.hi - s.psi.lo) * m * 2) // Jacobian + forcing pass
	// Warm start from the current stream function, whose first ghost
	// rows the exchange that opened the timestep has just delivered.
	if lo, hi := s.psi.lo, s.psi.hi; lo < hi {
		for r := max(lo-1, 1); r <= min(hi, m); r++ {
			copy(lv0.u.row(r), s.psi.row(r))
		}
	}
	cycles, converged := s.sol.Solve()
	s.Cycles = append(s.Cycles, cycles)
	if !converged {
		return fmt.Errorf("ocean: size %d, timestep %d: multigrid solve stopped after %d V-cycles with residual %.3g above its target %.3g",
			s.cfg.Size, i, cycles, s.sol.res, s.sol.target)
	}
	for r := s.psi.lo; r < s.psi.hi; r++ {
		copy(s.psi.row(r), lv0.u.row(r))
	}
	return nil
}

// run advances the simulation from timestep s.start to its last
// timestep, or to the first solve that does not converge. Between
// timesteps the whole state of the simulation is (timestep, owned ψ
// rows): vorticity, right-hand sides and every coarse level are
// recomputed from ψ deterministically. The rank keeps exactly those two
// across the ψ ghost exchange that opens each timestep and nothing
// after it, so with checkpointing armed that exchange's boundary is the
// timestep's cut and no superstep is added. A resumed rank's first keep
// restores both in place; the rank then sends the exchange again from
// the restored ψ, which refreshes every halo before it is read, so the
// recovered stream function is bit-identical to a fault-free run's.
func (s *oceanSim) run() {
	w, rows := s.m+2, s.psi.hi-s.psi.lo
	owned := s.psi.vals[slabHalo*w : (slabHalo+rows)*w]
	for ; s.start < s.cfg.steps() && s.err == nil; s.start++ {
		s.mc.keep(&s.start, &owned)
		if len(owned) != rows*w {
			panic(fmt.Errorf("ocean: the snapshot holds %d ψ values, this rank owns %d", len(owned), rows*w))
		}
		exchange(s.mc, s.fidPsi(), s.psi, 1)
		s.mc.keep()
		s.err = s.step(s.start)
	}
}

// Sequential runs the simulation on one processor (no BSP machinery) and
// returns the final stream function and the V-cycle count per step.
func Sequential(cfg Config) (*Fields, []int, error) { return sequential(cfg, tol) }

// sequential is Sequential with the solver tolerance given; tests make
// it unreachable.
func sequential(cfg Config, tol float64) (*Fields, []int, error) {
	sim, err := newOceanSim(seqMachine{}, cfg, tol)
	if err != nil {
		return nil, nil, err
	}
	sim.run()
	f, err := assemble([]*oceanSim{sim})
	return f, sim.Cycles, err
}

// Parallel runs the BSP simulation and returns the assembled stream
// function, which is bit-identical to Sequential's at every process
// count, plus the run statistics. With ccfg.Checkpoint armed every
// timestep boundary is a cut (see run), and a crashed-and-recovered run
// returns the fault-free result with the same S.
func Parallel(ccfg core.Config, cfg Config) (*Fields, *core.Stats, error) {
	f, _, st, err := parallel(ccfg, cfg, tol)
	return f, st, err
}

// parallel is Parallel with the solver tolerance given; it also returns
// the V-cycle count per step, which every process shares.
func parallel(ccfg core.Config, cfg Config, tol float64) (*Fields, []int, *core.Stats, error) {
	m, err := checkGrid(cfg.Size)
	if err != nil {
		return nil, nil, nil, err
	}
	sims := make([]*oceanSim, ccfg.P)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		sim, err := newOceanSim(newBSPMachine(c, m), cfg, tol)
		if err != nil {
			panic(err)
		}
		sims[c.ID()] = sim
		sim.run()
	})
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := assemble(sims)
	if err != nil {
		return nil, nil, nil, err
	}
	var cycles []int
	for _, s := range sims {
		if s != nil {
			cycles = s.Cycles
			break
		}
	}
	return f, cycles, st, nil
}

// assemble stitches the owned rows of every process into a full grid.
// On a cluster member only the locally-hosted rank's sim exists (the
// rest stay nil); its rows are filled and the remote ranks' rows are
// left zero — each process holds exactly its own partition. A run in
// which a solve did not converge has no result, only that error.
func assemble(sims []*oceanSim) (*Fields, error) {
	m := -1
	for _, s := range sims {
		if s == nil {
			continue
		}
		if s.err != nil {
			return nil, s.err
		}
		m = s.m
	}
	if m < 0 {
		return &Fields{}, nil
	}
	f := &Fields{M: m, Psi: make([]float64, (m+2)*(m+2))}
	for _, s := range sims {
		if s == nil {
			continue
		}
		for r := s.psi.lo; r < s.psi.hi; r++ {
			copy(f.Psi[r*(m+2):(r+1)*(m+2)], s.psi.row(r))
		}
	}
	return f, nil
}

// sinPi(x) = sin(πx), kept as a helper so the forcing reads clearly at
// the call site.
func sinPi(x float64) float64 { return math.Sin(math.Pi * x) }
