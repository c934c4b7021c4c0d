package ocean

import (
	"fmt"

	"repro/internal/core"
)

// The recoverable ocean driver checkpoints at timestep boundaries.
// Inside a timestep the machine state spans half-finished multigrid
// V-cycles — not restartable — but at the top of the loop the whole
// state of the simulation is (timestep index, owned ψ rows): vorticity,
// right-hand sides and every coarse level are recomputed from ψ
// deterministically. runRecoverable marks each boundary with one empty
// superstep and keeps (start, ψ's owned rows) for that superstep only,
// so every cut is a clean (i, ψ) cut that restores bit-identically. A
// resumed rank's first Keep fills both in place; it then re-runs the
// boundary superstep, whose inbox is empty.
func (s *oceanSim) runRecoverable(c *core.Proc) {
	w, rows := s.m+2, s.psi.hi-s.psi.lo
	owned := s.psi.vals[slabHalo*w : (slabHalo+rows)*w]
	for ; s.start < s.cfg.steps() && s.err == nil; s.start++ {
		c.Keep(&s.start, &owned)
		if len(owned) != rows*w {
			panic(fmt.Errorf("ocean: the snapshot holds %d ψ values, rank %d owns %d", len(owned), c.ID(), rows*w))
		}
		s.mc.barrier()
		c.Keep()
		s.err = s.step(s.start)
	}
}

// ParallelRecoverable is Parallel with a checkpoint cut at every
// timestep boundary. The assembled stream function of a
// crashed-and-recovered run is bit-identical to a fault-free run's: ψ
// restores exactly, the ghost exchange opening each timestep refreshes
// every halo before it is read, and the solver recomputes all derived
// fields in the same deterministic order. Each timestep costs one
// boundary superstep more than Parallel's, armed or not, so callers
// pick this driver only when they checkpoint.
func ParallelRecoverable(ccfg core.Config, cfg Config) (*Fields, *core.Stats, error) {
	return parallel(ccfg, cfg, (*oceanSim).runRecoverable)
}
