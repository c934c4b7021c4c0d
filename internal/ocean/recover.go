package ocean

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
)

// The recoverable ocean driver checkpoints at timestep boundaries.
// Inside a timestep the machine state spans half-finished multigrid
// V-cycles — not restartable — but at the top of the loop the whole
// state of the simulation is (timestep index, owned ψ rows): vorticity,
// right-hand sides and every coarse level are recomputed from ψ
// deterministically. runRecoverable marks each boundary with one empty
// superstep; the Save hook accepts only that superstep's boundary (the
// atBoundary flag), so every snapshot RunRecoverable captures is a
// clean (i, ψ) cut that restores bit-identically.
func (s *oceanSim) runRecoverable() {
	for i := s.start; i < s.cfg.steps() && s.err == nil; i++ {
		s.saveStep = i
		s.atBoundary = true
		s.mc.barrier()
		s.atBoundary = false
		s.err = s.step(i)
	}
}

// encodeState appends the boundary state to b: the upcoming timestep
// index and this rank's owned interior ψ rows, in the wire.Writer
// layout restoreState reads.
func (s *oceanSim) encodeState(b []byte) []byte {
	lo, hi := s.psi.lo, s.psi.hi
	b = slices.Grow(b, 32+8*(hi-lo)*(s.m+2))
	for _, v := range [...]int{s.saveStep, lo, hi, s.m} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for r := lo; r < hi; r++ {
		for _, v := range s.psi.row(r) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// restoreState loads a snapshot produced by encodeState into a freshly
// built sim, setting the resume timestep.
func (s *oceanSim) restoreState(b []byte) error {
	r := wire.NewReader(b)
	if r.Remaining() < 32 {
		return fmt.Errorf("ocean: snapshot state truncated: %d bytes", len(b))
	}
	step, lo, hi, m := r.Int(), r.Int(), r.Int(), r.Int()
	if lo != s.psi.lo || hi != s.psi.hi || m != s.m {
		return fmt.Errorf("ocean: snapshot shape (rows %d-%d of %d) does not match this rank (rows %d-%d of %d)",
			lo, hi, m, s.psi.lo, s.psi.hi, s.m)
	}
	if r.Remaining() != 8*(hi-lo)*(m+2) {
		return fmt.Errorf("ocean: snapshot state inconsistent: %d bytes of ψ left", r.Remaining())
	}
	for row := lo; row < hi; row++ {
		vals := s.psi.row(row)
		for c := range vals {
			vals[c] = r.Float64()
		}
	}
	s.start = step
	return nil
}

// ParallelRecoverable is Parallel running under core.RunRecoverable
// with timestep-boundary checkpoint hooks. The assembled stream
// function of a crashed-and-recovered run is bit-identical to a
// fault-free run's: ψ restores exactly, the ghost exchange opening
// each timestep refreshes every halo before it is read, and the solver
// recomputes all derived fields in the same deterministic order. Each
// timestep costs one boundary superstep more than Parallel's, armed or
// not, so callers pick this driver only when they checkpoint.
func ParallelRecoverable(ccfg core.Config, cfg Config) (*Fields, *core.Stats, error) {
	if _, err := checkGrid(cfg.Size); err != nil {
		return nil, nil, err
	}
	sims := make([]*oceanSim, ccfg.P)
	// restored[q] is owned by rank q's goroutine: written by its
	// Restore hook before fn runs, consumed at fn entry.
	restored := make([][]byte, ccfg.P)
	hooks := core.Hooks{
		Save: func(c *core.Proc, buf []byte) ([]byte, bool) {
			s := sims[c.ID()]
			if s == nil || !s.atBoundary {
				return nil, false
			}
			return s.encodeState(buf), true
		},
		Restore: func(c *core.Proc, step int, state []byte) error {
			restored[c.ID()] = state
			return nil
		},
	}
	st, err := core.RunRecoverable(ccfg, func(c *core.Proc) {
		sim, err := newOceanSim(newBSPMachine(c), cfg, c.P(), c.ID())
		if err != nil {
			panic(err)
		}
		if c.Step() > 0 {
			if err := sim.restoreState(restored[c.ID()]); err != nil {
				panic(err)
			}
		}
		sims[c.ID()] = sim
		sim.runRecoverable()
	}, hooks)
	if err != nil {
		return nil, nil, err
	}
	f, err := assemble(sims)
	if err != nil {
		return nil, nil, err
	}
	return f, st, nil
}
