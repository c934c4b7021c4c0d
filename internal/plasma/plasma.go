// Package plasma implements a one-dimensional electrostatic
// particle-in-cell plasma simulation on the BSP library, after the BSP
// plasma work the paper cites as related (§1.3 reference [28]:
// Nibhanupudi, Norton and Szymanski, "Plasma simulation on networks of
// workstations using the bulk synchronous parallel model").
//
// Physics: electrons in a periodic box with a fixed neutralizing ion
// background. Each step (i) deposits charge to the grid with linear
// (cloud-in-cell) weighting, (ii) solves the periodic 1-D Poisson
// equation for the electric field by a prefix sum with mean subtraction,
// and (iii) gathers the field at particle positions, accelerates and
// moves the particles.
//
// BSP decomposition: the grid is split into strips and each particle
// lives on the owner of its cell. One step costs five supersteps:
// charge-spill routing, strip charge sums, field gauge + edge face
// exchange, the field-energy diagnostic reduce, and particle migration —
// a regular communication pattern (h bounded by spilled cells, p-sized
// reductions and migrating particles) like the paper's ocean code.
package plasma

import (
	"math"
	"math/rand"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// Particle is one macro-electron.
type Particle struct {
	X, V float64
}

// The simulation parameters.
const (
	// cells is the grid size.
	cells = 128
	// dt is the timestep.
	dt float64 = 0.1
	// qm is the charge-to-mass ratio (negative for electrons).
	qm float64 = -1
)

// TwoStream initializes the classic two-stream instability: two
// counter-propagating beams with a small sinusoidal position
// perturbation that seeds the unstable mode.
func TwoStream(n int, v0, perturb float64, seed int64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Particle, n)
	for i := range ps {
		x := (float64(i) + 0.5) / float64(n)
		x += perturb * math.Sin(2*math.Pi*x)
		x -= math.Floor(x)
		v := v0
		if i%2 == 1 {
			v = -v0
		}
		v += 0.01 * v0 * rng.NormFloat64()
		ps[i] = Particle{X: x, V: v}
	}
	return ps
}

// wrap maps x into [0, 1).
func wrap(x float64) float64 {
	x -= math.Floor(x)
	if x >= 1 { // guard against -1e-17 rounding to 1.0
		x = 0
	}
	return x
}

// deposit adds CIC charge for one particle to a density array of ng
// cells covering [0,1) periodically. charge is per macro-particle.
func deposit(rho []float64, ng int, x, charge float64) {
	fx := x * float64(ng)
	j := int(fx)
	frac := fx - float64(j)
	rho[j%ng] += charge * (1 - frac) * float64(ng)
	rho[(j+1)%ng] += charge * frac * float64(ng)
}

// fieldFromRho solves the periodic 1-D Poisson problem: E_j at cell
// faces from the cell densities, via prefix sums with the mean removed
// (periodicity requires zero net charge; the neutralizing background
// enforces it).
func fieldFromRho(rho []float64) []float64 {
	ng := len(rho)
	dx := 1 / float64(ng)
	mean := 0.0
	for _, r := range rho {
		mean += r
	}
	mean /= float64(ng)
	e := make([]float64, ng)
	acc := 0.0
	for j := 0; j < ng; j++ {
		acc += (rho[j] - mean) * dx
		e[j] = acc
	}
	// Remove the average field (the periodic gauge freedom) so momentum
	// is conserved.
	avg := 0.0
	for _, v := range e {
		avg += v
	}
	avg /= float64(ng)
	for j := range e {
		e[j] -= avg
	}
	return e
}

// gather interpolates the cell-centered field at particle position x.
// Cell-centered values are face averages; pairing this with the CIC
// deposit gives the classic momentum-conserving 1-D PIC scheme.
func gather(e []float64, ng int, x float64) float64 {
	fx := x * float64(ng)
	j := int(fx)
	frac := fx - float64(j)
	ej := (e[(j-1+ng)%ng] + e[j%ng]) / 2
	ej1 := (e[j%ng] + e[(j+1)%ng]) / 2
	return ej*(1-frac) + ej1*frac
}

// Sequential advances the particles for the given number of steps and
// returns the field-energy history (the diagnostic the two-stream test
// watches).
func Sequential(ps []Particle, steps int) []float64 { return sequential(ps, cells, steps) }

// sequential is Sequential on a grid of ng cells; tests shrink the grid
// below the process count.
func sequential(ps []Particle, ng, steps int) []float64 {
	charge := 1 / float64(len(ps))
	var energy []float64
	for s := 0; s < steps; s++ {
		rho := make([]float64, ng)
		for _, p := range ps {
			deposit(rho, ng, p.X, charge)
		}
		e := fieldFromRho(rho)
		var fe float64
		for _, v := range e {
			fe += v * v
		}
		energy = append(energy, fe/float64(ng))
		for i := range ps {
			ps[i].V += qm * gather(e, ng, ps[i].X) * dt
			ps[i].X = wrap(ps[i].X + ps[i].V*dt)
		}
	}
	return energy
}

// ownerOfCell maps a grid cell to its process under the strip
// partition. The proportional guess is corrected against cellRange,
// whose rounding it must invert exactly.
func ownerOfCell(ng, p, cell int) int {
	q := cell * p / ng
	for {
		lo, hi := cellRange(ng, p, q)
		switch {
		case cell < lo:
			q--
		case cell >= hi:
			q++
		default:
			return q
		}
	}
}

// cellRange returns process q's cell strip [lo, hi).
func cellRange(ng, p, q int) (int, int) { return ng * q / p, ng * (q + 1) / p }

// run advances this process's particles on the BSP machine over a grid
// of ng cells and returns them along with the field-energy history. Each
// step costs five supersteps (charge spill, strip sums, field gauge +
// edge face, energy reduce, particle migration) plus one setup superstep
// for the global particle count.
func run(c *core.Proc, mine []Particle, ng, steps int) ([]Particle, []float64) {
	// The push updates particles in place; a re-execution after a
	// recovered fault must start from the caller's untouched input.
	mine = append([]Particle(nil), mine...)
	p := c.P()
	lo, hi := cellRange(ng, p, c.ID())
	totalN := collect.AllReduceInt(c, len(mine), func(a, b int) int { return a + b })
	charge := 1 / float64(totalN)
	dx := 1 / float64(ng)
	var energy []float64
	out := make([]*wire.Writer, p)
	for i := range out {
		out[i] = wire.NewWriter(0)
	}
	for s := 0; s < steps; s++ {
		// Superstep A: deposit locally; weights spilled into cells of
		// other strips are routed to their owners.
		rho := make([]float64, ng)
		for _, pt := range mine {
			deposit(rho, ng, pt.X, charge)
		}
		c.AddWork(len(mine) + (hi - lo))
		for j := 0; j < ng; j++ {
			if rho[j] != 0 && ownerOfCell(ng, p, j) != c.ID() {
				w := out[ownerOfCell(ng, p, j)]
				w.Uint32(uint32(j))
				w.Uint32(0)
				w.Float64(rho[j])
				rho[j] = 0
			}
		}
		sendAll(c, out)
		c.Sync()
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= 16 {
				j := int(r.Uint32())
				r.Uint32()
				rho[j] += r.Float64()
			}
		}
		// Superstep B: every process needs every strip's charge sum to
		// place its local field prefix and remove the mean density.
		stripSum := 0.0
		for j := lo; j < hi; j++ {
			stripSum += rho[j] * dx
		}
		sums := broadcastScalar(c, stripSum)
		total, prefix := 0.0, 0.0
		for q := 0; q < p; q++ {
			if q < c.ID() {
				prefix += sums[q]
			}
			total += sums[q]
		}
		mean := total // Σ rho·dx over the unit box = mean density
		eLoc := make([]float64, hi-lo)
		acc := prefix - mean*float64(lo)*dx
		for j := lo; j < hi; j++ {
			acc += (rho[j] - mean) * dx
			eLoc[j-lo] = acc
		}
		// Superstep C: exchange the strip field integrals (for the
		// periodic gauge: subtract the global average field) and the
		// first face value each strip's left neighbor needs for
		// interpolation at its last cell.
		stripEInt := 0.0
		for _, v := range eLoc {
			stripEInt += v * dx
		}
		if hi > lo {
			// The previous strip needs our first face (its j+1 stencil)
			// and the next strip needs our last face (its j-1 stencil).
			prevOwner := ownerOfCell(ng, p, ((lo-1)+ng)%ng)
			if prevOwner != c.ID() {
				w := out[prevOwner]
				w.Uint32(uint32(lo))
				w.Uint32(2)
				w.Float64(eLoc[0])
			}
			nextOwner := ownerOfCell(ng, p, hi%ng)
			if nextOwner != c.ID() {
				w := out[nextOwner]
				w.Uint32(uint32(hi - 1))
				w.Uint32(2)
				w.Float64(eLoc[hi-1-lo])
			}
		}
		ints := broadcastScalarVia(c, stripEInt, out)
		eAvg := 0.0
		for _, v := range ints.sums {
			eAvg += v
		}
		faceIdxBelow := ((lo - 1) + ng) % ng
		faceIdxAbove := hi % ng
		faceBelow, faceAbove := ints.faces[faceIdxBelow], ints.faces[faceIdxAbove]
		if hi > lo {
			if faceIdxBelow >= lo && faceIdxBelow < hi {
				faceBelow = eLoc[faceIdxBelow-lo] // periodic wrap onto ourselves
			}
			if faceIdxAbove >= lo && faceIdxAbove < hi {
				faceAbove = eLoc[faceIdxAbove-lo]
			}
		}
		for j := range eLoc {
			eLoc[j] -= eAvg
		}
		faceBelow -= eAvg
		faceAbove -= eAvg
		var fe float64
		for _, v := range eLoc {
			fe += v * v
		}
		energy = append(energy, collect.AllReduce(c, fe, collect.SumFloat)/float64(ng))
		// (The energy all-reduce is the fourth superstep\u2019s first hop;
		// see below: migration shares the same superstep count.)
		// Superstep D: accelerate, move, migrate.
		faceAt := func(j int) float64 {
			j = ((j % ng) + ng) % ng
			if j >= lo && j < hi {
				return eLoc[j-lo]
			}
			if j == faceIdxBelow {
				return faceBelow
			}
			return faceAbove
		}
		kept := mine[:0]
		for i := range mine {
			pt := mine[i]
			fx := pt.X * float64(ng)
			cell := int(fx)
			frac := fx - float64(cell)
			eC := (faceAt(cell-1) + faceAt(cell)) / 2
			eC1 := (faceAt(cell) + faceAt(cell+1)) / 2
			e := eC*(1-frac) + eC1*frac
			pt.V += qm * e * dt
			pt.X = wrap(pt.X + pt.V*dt)
			nc := int(pt.X * float64(ng))
			if nc >= ng {
				nc = ng - 1
			}
			if q := ownerOfCell(ng, p, nc); q == c.ID() {
				kept = append(kept, pt)
			} else {
				w := out[q]
				w.Float64(pt.X)
				w.Float64(pt.V)
			}
		}
		c.AddWork(len(mine))
		mine = kept
		sendAll(c, out)
		c.Sync()
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= particleBytes {
				mine = append(mine, Particle{X: r.Float64(), V: r.Float64()})
			}
		}
	}
	return mine, energy
}

// particleBytes is the wire size of a migrating particle.
const particleBytes = 16

// broadcastScalar sends x to every peer tagged with this rank and
// returns the per-rank values (one superstep).
func broadcastScalar(c *core.Proc, x float64) []float64 {
	w := wire.NewWriter(16)
	w.Uint32(uint32(c.ID()))
	w.Uint32(1)
	w.Float64(x)
	for q := 0; q < c.P(); q++ {
		if q != c.ID() {
			c.Send(q, w.Bytes())
		}
	}
	c.Sync()
	sums := make([]float64, c.P())
	sums[c.ID()] = x
	for {
		msg, ok := c.Recv()
		if !ok {
			return sums
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			from := int(r.Uint32())
			r.Uint32()
			sums[from] = r.Float64()
		}
	}
}

// faceExchange is broadcastScalar plus the pre-queued edge-face records
// (kind 2) flushed in the same superstep.
type faceExchange struct {
	sums  []float64
	faces map[int]float64
}

func broadcastScalarVia(c *core.Proc, x float64, out []*wire.Writer) faceExchange {
	w := wire.NewWriter(16)
	w.Uint32(uint32(c.ID()))
	w.Uint32(1)
	w.Float64(x)
	for q := 0; q < c.P(); q++ {
		if q != c.ID() {
			c.Send(q, w.Bytes())
		}
	}
	sendAll(c, out)
	c.Sync()
	fe := faceExchange{sums: make([]float64, c.P()), faces: make(map[int]float64)}
	fe.sums[c.ID()] = x
	for {
		msg, ok := c.Recv()
		if !ok {
			return fe
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			tag := r.Uint32()
			kind := r.Uint32()
			v := r.Float64()
			if kind == 2 {
				fe.faces[int(tag)] = v
			} else {
				fe.sums[tag] = v
			}
		}
	}
}

func sendAll(c *core.Proc, out []*wire.Writer) {
	for q := 0; q < c.P(); q++ {
		if out[q].Len() > 0 {
			c.Send(q, out[q].Bytes())
			out[q].Reset()
		}
	}
}

// Parallel distributes particles to their cell owners, runs the BSP
// simulation, and returns the final particles (arbitrary order) and the
// field-energy history of the given number of steps.
func Parallel(ccfg core.Config, ps []Particle, steps int) ([]Particle, []float64, *core.Stats, error) {
	return parallel(ccfg, ps, cells, steps)
}

// parallel is Parallel on a grid of ng cells.
func parallel(ccfg core.Config, ps []Particle, ng, steps int) ([]Particle, []float64, *core.Stats, error) {
	mine := make([][]Particle, ccfg.P)
	for _, pt := range ps {
		cell := int(pt.X * float64(ng))
		if cell >= ng {
			cell = ng - 1
		}
		q := ownerOfCell(ng, ccfg.P, cell)
		mine[q] = append(mine[q], pt)
	}
	final := make([][]Particle, ccfg.P)
	energies := make([][]float64, ccfg.P)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		out, en := run(c, mine[c.ID()], ng, steps)
		final[c.ID()] = out
		energies[c.ID()] = en
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var all []Particle
	for _, part := range final {
		all = append(all, part...)
	}
	return all, energies[0], st, nil
}
