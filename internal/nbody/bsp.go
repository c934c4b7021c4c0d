package nbody

import (
	"fmt"
	"math"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// sampleTarget is the per-process position sample size used when
// rebuilding the ORB.
const sampleTarget = 256

// bodyBytes is the wire size of a migrated body: position, velocity,
// mass (7 float64).
const bodyBytes = 56

// pointBytes is the wire size of an essential point: position and mass.
const pointBytes = 32

func writeBody(w *wire.Writer, b Body) {
	for k := 0; k < 3; k++ {
		w.Float64(b.Pos[k])
	}
	for k := 0; k < 3; k++ {
		w.Float64(b.Vel[k])
	}
	w.Float64(b.Mass)
}

func readBody(r *wire.Reader) Body {
	var b Body
	for k := 0; k < 3; k++ {
		b.Pos[k] = r.Float64()
	}
	for k := 0; k < 3; k++ {
		b.Vel[k] = r.Float64()
	}
	b.Mass = r.Float64()
	return b
}

// procSim is one processor's state for the parallel simulation.
type procSim struct {
	c      *core.Proc
	orb    *ORB
	bodies []Body
	// threshold triggers ORB repartitioning (see Run).
	threshold float64
	load      int // interactions evaluated in the previous iteration
	out       []*wire.Writer
	// Rebalances counts ORB rebuilds, exposed for the ablation bench.
	rebalances int
}

func (s *procSim) sendAll() {
	for q := 0; q < s.c.P(); q++ {
		if s.out[q].Len() > 0 {
			s.c.Send(q, s.out[q].Bytes())
			s.out[q].Reset()
		}
	}
}

// globalBounds is superstep 1: all-reduce of the bounding box.
func (s *procSim) globalBounds() Box {
	lo, hi := Bounds(s.bodies)
	if len(s.bodies) == 0 {
		lo = Vec3{math.Inf(1), math.Inf(1), math.Inf(1)}
		hi = Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	}
	w := wire.NewWriter(48)
	for k := 0; k < 3; k++ {
		w.Float64(lo[k])
	}
	for k := 0; k < 3; k++ {
		w.Float64(hi[k])
	}
	for q := 0; q < s.c.P(); q++ {
		if q != s.c.ID() {
			s.c.Send(q, w.Bytes())
		}
	}
	s.c.Sync()
	for {
		msg, ok := s.c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		var plo, phi Vec3
		for k := 0; k < 3; k++ {
			plo[k] = r.Float64()
		}
		for k := 0; k < 3; k++ {
			phi[k] = r.Float64()
		}
		for k := 0; k < 3; k++ {
			lo[k] = math.Min(lo[k], plo[k])
			hi[k] = math.Max(hi[k], phi[k])
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// maybeRebalance is supersteps 2 and 3: processors report their load
// and a position sample to process 0; if the load imbalance exceeds the
// threshold, process 0 rebuilds the ORB from the samples and broadcasts
// it ("Instead of repartitioning the bodies after each iteration as in
// [Warren-Salmon], we only do so if the load imbalance reaches a certain
// threshold, as suggested in [Liu-Bhatt]").
func (s *procSim) maybeRebalance(universe Box) {
	c := s.c
	stride := max(1, len(s.bodies)/sampleTarget)
	w := s.out[0]
	w.Int(s.load)
	nsamples := 0
	for i := 0; i < len(s.bodies); i += stride {
		nsamples++
	}
	w.Int(nsamples)
	for i := 0; i < len(s.bodies); i += stride {
		for k := 0; k < 3; k++ {
			w.Float64(s.bodies[i].Pos[k])
		}
	}
	s.sendAll()
	c.Sync()
	if c.ID() == 0 {
		var samples []Vec3
		var maxLoad, sumLoad int
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			load := r.Int()
			maxLoad = max(maxLoad, load)
			sumLoad += load
			n := r.Int()
			for i := 0; i < n; i++ {
				var pos Vec3
				for k := 0; k < 3; k++ {
					pos[k] = r.Float64()
				}
				samples = append(samples, pos)
			}
		}
		avg := float64(sumLoad) / float64(c.P())
		rebuild := avg == 0 || float64(maxLoad) > s.threshold*avg
		var reply []byte
		if rebuild {
			orb, err := BuildORB(samples, c.P(), universe)
			if err != nil {
				panic(err)
			}
			reply = append([]byte{1}, orb.Encode()...)
		} else {
			reply = []byte{0}
		}
		for q := 1; q < c.P(); q++ {
			c.Send(q, reply)
		}
		c.Sync()
		if rebuild {
			s.orb = DecodeORB(reply[1:])
			s.rebalances++
		}
		return
	}
	c.Sync()
	msg, ok := c.Recv()
	if !ok {
		panic("nbody: missing ORB broadcast")
	}
	if msg[0] == 1 {
		s.orb = DecodeORB(msg[1:])
		s.rebalances++
	}
}

// migrate is superstep 4: bodies are routed to the owners of their
// current positions.
func (s *procSim) migrate() {
	c := s.c
	kept := s.bodies[:0]
	for _, b := range s.bodies {
		owner := s.orb.OwnerOf(b.Pos)
		if owner == c.ID() {
			kept = append(kept, b)
		} else {
			writeBody(s.out[owner], b)
		}
	}
	s.bodies = kept
	s.sendAll()
	c.Sync()
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= bodyBytes {
			s.bodies = append(s.bodies, readBody(r))
		}
	}
}

// exchangeEssential is superstep 5: build the local tree over the
// global bounding cube and ship each peer the essential subtrees for
// its domain; the received points complete this processor's view of the
// global mass distribution.
func (s *procSim) exchangeEssential(universe Box, tree *Tree) []EssentialPoint {
	c := s.c
	for q := 0; q < c.P(); q++ {
		if q == c.ID() {
			continue
		}
		pts := tree.Essential(s.orb.Domain(q, universe), theta)
		w := s.out[q]
		for _, p := range pts {
			for k := 0; k < 3; k++ {
				w.Float64(p.Pos[k])
			}
			w.Float64(p.Mass)
		}
	}
	s.sendAll()
	c.Sync()
	var ext []EssentialPoint
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= pointBytes {
			var p EssentialPoint
			for k := 0; k < 3; k++ {
				p.Pos[k] = r.Float64()
			}
			p.Mass = r.Float64()
			ext = append(ext, p)
		}
	}
	return ext
}

// iterate runs one simulation step: six supersteps when p > 1 (bounds,
// load report, ORB broadcast, migration, essential exchange, force +
// diagnostics), four when p = 1 (the rebalancing pair disappears — a
// single processor never repartitions), matching the paper's Table C.4
// (S = 6 per iteration for NP ≥ 2, S = 4 for NP = 1).
func (s *procSim) iterate() {
	c := s.c
	universe := s.globalBounds()
	if c.P() > 1 {
		s.maybeRebalance(universe)
		s.migrate()
	} else {
		s.migrate() // no-op routing, but keeps the superstep structure
	}
	tree := NewTree(s.bodies, universe.Lo, universe.Hi)
	ext := s.exchangeEssential(universe, tree)
	// Merge the essential points into the local tree as point masses, so
	// that "every processor has a local BH tree that contains all the
	// data needed to compute the forces on its bodies" (§3.2) — the tree
	// groups distant essential points hierarchically, keeping the
	// interaction count close to the sequential algorithm's.
	merged := make([]Body, 0, len(s.bodies)+len(ext))
	merged = append(merged, s.bodies...)
	for _, p := range ext {
		merged = append(merged, Body{Pos: p.Pos, Mass: p.Mass})
	}
	letTree := tree
	if len(ext) > 0 {
		letTree = NewTree(merged, universe.Lo, universe.Hi)
	}
	acc := make([]Vec3, len(s.bodies))
	s.load = 0
	for i := range s.bodies {
		a, k := letTree.Force(s.bodies[i].Pos, theta, eps)
		acc[i] = a
		s.load += k
	}
	// Work units: interaction count — "the interactions... take around
	// 97% of the total sequential running time" (§3.2.1) — plus a small
	// per-body term for the tree build and integration.
	c.AddWork(s.load + 4*len(s.bodies))
	Step(s.bodies, acc, dt)
	// Diagnostics all-reduce closes the iteration (one superstep): the
	// global interaction count feeds the next rebalancing decision and
	// doubles as the iteration barrier.
	collect.AllReduceInt(c, 0, func(a, b int) int { return a + b })
}

// Run executes steps iterations on one BSP process, starting from this
// process's bodies under the given initial ORB, and returns its final
// bodies and the number of ORB rebuilds. The ORB is rebuilt when the
// maximum per-processor load exceeds threshold times the mean,
// following Liu-Bhatt: "we only do so if the load imbalance reaches a
// certain threshold".
func Run(c *core.Proc, myBodies []Body, orb *ORB, threshold float64, steps int) ([]Body, int) {
	s := &procSim{c: c, orb: orb, bodies: append([]Body(nil), myBodies...), threshold: threshold}
	s.out = make([]*wire.Writer, c.P())
	for i := range s.out {
		s.out[i] = wire.NewWriter(0)
	}
	s.load = len(s.bodies) // body count seeds the first balance check
	for it := 0; it < steps; it++ {
		s.iterate()
	}
	return s.bodies, s.rebalances
}

// Parallel distributes bodies by an initial ORB, runs the BSP
// simulation, and returns the final bodies (in arbitrary order) with
// the run statistics.
func Parallel(cfg core.Config, bodies []Body, steps int) ([]Body, *core.Stats, error) {
	if _, err := BuildORB(nil, cfg.P, Box{}); err != nil {
		return nil, nil, err
	}
	lo, hi := Bounds(bodies)
	universe := Box{Lo: lo, Hi: hi}
	// Grow the universe slightly so the half-open ORB domains cover the
	// extreme bodies.
	for k := 0; k < 3; k++ {
		pad := 1e-9 + 1e-12*math.Abs(universe.Hi[k])
		universe.Hi[k] += pad
	}
	positions := make([]Vec3, len(bodies))
	for i, b := range bodies {
		positions[i] = b.Pos
	}
	orb, err := BuildORB(positions, cfg.P, universe)
	if err != nil {
		return nil, nil, err
	}
	mine := make([][]Body, cfg.P)
	for _, b := range bodies {
		q := orb.OwnerOf(b.Pos)
		mine[q] = append(mine[q], b)
	}
	final := make([][]Body, cfg.P)
	st, err := core.Run(cfg, func(c *core.Proc) {
		out, _ := Run(c, mine[c.ID()], orb, rebalanceThreshold, steps)
		final[c.ID()] = out
	})
	if err != nil {
		return nil, nil, err
	}
	var all []Body
	for _, part := range final {
		all = append(all, part...)
	}
	if len(all) != len(bodies) {
		return nil, nil, fmt.Errorf("nbody: body count changed: %d -> %d", len(bodies), len(all))
	}
	return all, st, nil
}
