// Package nbody implements the paper's N-body application (§3.2): a
// Barnes-Hut simulation in the style of Warren-Salmon and Liu-Bhatt,
// with ORB partitioning, essential-tree exchange, and threshold-driven
// repartitioning.
//
// "In each step, the BH tree is first constructed locally inside each
// processor. Then appropriate subtrees, called 'essential trees', are
// exchanged between every pair of processors, such that afterwards every
// processor has a local BH tree that contains all the data needed to
// compute the forces on its bodies, and whose structure is consistent
// with that of the global BH tree constructed by the sequential
// algorithm."
package nbody

import "math"

// Vec3 is a 3-vector.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v[0]*v[0] + v[1]*v[1] + v[2]*v[2] }

// Body is one simulated particle.
type Body struct {
	Pos  Vec3
	Vel  Vec3
	Mass float64
}

// The physics parameters shared by the sequential and parallel codes.
const (
	// theta is the Barnes-Hut opening angle; a cell of side s at
	// distance d is accepted when s/d < theta.
	theta float64 = 0.5
	// eps is the Plummer softening length.
	eps float64 = 0.05
	// dt is the leapfrog time step.
	dt float64 = 0.025
	// rebalanceThreshold is Parallel's repartition trigger (see Run).
	rebalanceThreshold float64 = 1.25
)

// accumulate adds the softened gravitational acceleration exerted on a
// body at pos by a point mass m at q.
func accumulate(acc *Vec3, pos, q Vec3, m, eps2 float64) {
	d := q.Sub(pos)
	r2 := d.Norm2() + eps2
	inv := 1 / (r2 * math.Sqrt(r2))
	acc[0] += m * d[0] * inv
	acc[1] += m * d[1] * inv
	acc[2] += m * d[2] * inv
}

// Step advances bodies one leapfrog (kick-drift) step with the given
// accelerations.
func Step(bodies []Body, acc []Vec3, dt float64) {
	for i := range bodies {
		bodies[i].Vel = bodies[i].Vel.Add(acc[i].Scale(dt))
		bodies[i].Pos = bodies[i].Pos.Add(bodies[i].Vel.Scale(dt))
	}
}

// Bounds returns the axis-aligned bounding box of the bodies.
func Bounds(bodies []Body) (lo, hi Vec3) {
	if len(bodies) == 0 {
		return Vec3{}, Vec3{}
	}
	lo, hi = bodies[0].Pos, bodies[0].Pos
	for _, b := range bodies[1:] {
		for k := 0; k < 3; k++ {
			lo[k] = math.Min(lo[k], b.Pos[k])
			hi[k] = math.Max(hi[k], b.Pos[k])
		}
	}
	return lo, hi
}
