// Package radiosity implements the hierarchical radiosity algorithm the
// paper names as future work (§5: "a hierarchical algorithm for the
// radiosity problem in computer graphics", after Hanrahan, Saltzman and
// Aupperle), in its two-dimensional "flatland" form: patches are line
// segments, and patch-to-patch form factors follow Hottel's
// crossed-strings rule, which is exact in 2-D for unoccluded pairs.
//
// The hierarchical structure is Hanrahan's: patch pairs are refined
// until the estimated form factor falls below an error threshold (or the
// patches reach minimum size), producing O(n) interaction links at mixed
// levels; each solver iteration gathers irradiance across the links and
// redistributes it through the hierarchy with the standard push-pull
// pass.
//
// Scenes are assumed occlusion-free (e.g. the interior of a convex
// room), which keeps the crossed-strings factors exact; this is the
// standard flatland testbed for hierarchical radiosity and is validated
// by the white-furnace test (closed environment, uniform reflectance r,
// uniform emission E ⇒ radiosity exactly E/(1−r)).
//
// BSP parallelization: the hierarchy and links are built
// deterministically and replicated; gather links are partitioned by the
// owner of their target's root patch, so each iteration is one gather +
// push-pull over owned subtrees followed by a single superstep that
// broadcasts the refreshed subtree radiosities — compute-local,
// exchange-global, exactly one superstep per iteration plus a
// convergence reduce.
package radiosity

import (
	"fmt"
	"math"
)

// Point is a 2-D point.
type Point struct{ X, Y float64 }

func (p Point) sub(q Point) Point     { return Point{p.X - q.X, p.Y - q.Y} }
func (p Point) add(q Point) Point     { return Point{p.X + q.X, p.Y + q.Y} }
func (p Point) scale(s float64) Point { return Point{s * p.X, s * p.Y} }
func (p Point) norm() float64         { return math.Hypot(p.X, p.Y) }
func dist(a, b Point) float64         { return a.sub(b).norm() }

// Patch is one input segment with uniform emission and reflectance.
type Patch struct {
	A, B        Point
	Emission    float64
	Reflectance float64
}

// The refinement and solver parameters.
const (
	// ffEps is the form-factor refinement threshold.
	ffEps float64 = 0.05
	// minLengthDiv stops refinement below 1/minLengthDiv of the longest
	// input patch.
	minLengthDiv = 64
	// iterations is the number of gather/push-pull sweeps.
	iterations = 16
)

const noNode = int32(-1)

// node is one element of the patch hierarchy.
type node struct {
	a, b     Point
	emission float64
	rho      float64
	root     int32 // index of the top-level patch this node refines
	children [2]int32
	length   float64
	// Solver state: rad is the current radiosity, gather the
	// irradiance collected at this level in the current iteration.
	rad    float64
	gather float64
}

// link gathers radiosity from node src into node dst with form factor ff
// (fraction of dst's "view" occupied by src).
type link struct {
	src, dst int32
	ff       float64
}

// Hierarchy is the refined scene.
type Hierarchy struct {
	nodes []node
	roots []int32
	links []link
}

// ffBetween returns the crossed-strings form factor F(dst→src): the
// fraction of radiation leaving dst that arrives at src, exact in 2-D
// without occlusion:
//
//	F = (|d1| + |d2| − |s1| − |s2|) / (2·len(dst))
//
// where d are the crossed (diagonal) strings and s the uncrossed sides.
func ffBetween(dstA, dstB, srcA, srcB Point, dstLen float64) float64 {
	// For segments wound consistently around a closed boundary (as Room
	// produces), the strings connecting like endpoints (A-A, B-B) are
	// the crossed ones.
	crossed := dist(dstA, srcA) + dist(dstB, srcB)
	uncrossed := dist(dstA, srcB) + dist(dstB, srcA)
	ff := (crossed - uncrossed) / (2 * dstLen)
	if ff < 0 {
		return 0
	}
	return ff
}

// Build refines the scene into a hierarchy with interaction links.
func Build(patches []Patch) (*Hierarchy, error) { return build(patches, ffEps) }

// build is Build with the form-factor threshold eps; tests vary it to
// compare coarse and fine hierarchies.
func build(patches []Patch, eps float64) (*Hierarchy, error) {
	if len(patches) < 2 {
		return nil, fmt.Errorf("radiosity: need at least 2 patches, got %d", len(patches))
	}
	h := &Hierarchy{}
	maxLen := 0.0
	for _, p := range patches {
		maxLen = math.Max(maxLen, dist(p.A, p.B))
	}
	minLen := maxLen / minLengthDiv
	for i, p := range patches {
		n := node{a: p.A, b: p.B, emission: p.Emission, rho: p.Reflectance,
			root: int32(i), children: [2]int32{noNode, noNode}, length: dist(p.A, p.B),
			rad: p.Emission}
		h.nodes = append(h.nodes, n)
		h.roots = append(h.roots, int32(len(h.nodes)-1))
	}
	// Refine every ordered root pair (links are directional: gather at
	// dst from src).
	for _, i := range h.roots {
		for _, j := range h.roots {
			if i != j {
				h.refine(j, i, eps, minLen) // gather into i from j
			}
		}
	}
	return h, nil
}

// split lazily creates the two children of n.
func (h *Hierarchy) split(ni int32) {
	n := &h.nodes[ni]
	if n.children[0] != noNode {
		return
	}
	mid := n.a.add(n.b).scale(0.5)
	for k, seg := range [2][2]Point{{n.a, mid}, {mid, n.b}} {
		child := node{a: seg[0], b: seg[1], emission: n.emission, rho: n.rho,
			root: n.root, children: [2]int32{noNode, noNode},
			length: dist(seg[0], seg[1]), rad: n.emission}
		h.nodes = append(h.nodes, child)
		h.nodes[ni].children[k] = int32(len(h.nodes) - 1)
	}
}

// refine creates a link src→dst when the form factor is below eps,
// otherwise subdivides the longer endpoint and recurses (Hanrahan's
// refinement rule).
func (h *Hierarchy) refine(src, dst int32, eps, minLen float64) {
	s, d := &h.nodes[src], &h.nodes[dst]
	ff := ffBetween(d.a, d.b, s.a, s.b, d.length)
	if ff <= 0 {
		return // facing away or degenerate: no transport
	}
	if ff < eps || (s.length <= minLen && d.length <= minLen) {
		h.links = append(h.links, link{src: src, dst: dst, ff: ff})
		return
	}
	if s.length >= d.length && s.length > minLen {
		h.split(src)
		sc := h.nodes[src].children
		h.refine(sc[0], dst, eps, minLen)
		h.refine(sc[1], dst, eps, minLen)
		return
	}
	h.split(dst)
	dc := h.nodes[dst].children
	h.refine(src, dc[0], eps, minLen)
	h.refine(src, dc[1], eps, minLen)
}

// gatherLinks collects irradiance across the given links using the
// current radiosities.
func (h *Hierarchy) gatherLinks(links []link) {
	for _, l := range links {
		h.nodes[l.dst].gather += l.ff * h.nodes[l.src].rad
	}
}

// pushPull redistributes gathered irradiance in root's subtree: parents
// push their gather down, leaves compute radiosity, parents pull the
// length-weighted average back up. Returns the subtree's new radiosity.
func (h *Hierarchy) pushPull(ni int32, down float64) float64 {
	n := &h.nodes[ni]
	total := down + n.gather
	n.gather = 0
	if n.children[0] == noNode {
		n.rad = n.emission + n.rho*total
		return n.rad
	}
	c0, c1 := n.children[0], n.children[1]
	b0 := h.pushPull(c0, total)
	b1 := h.pushPull(c1, total)
	n.rad = (b0*h.nodes[c0].length + b1*h.nodes[c1].length) / n.length
	return n.rad
}

// Iterate runs one sequential gather + push-pull sweep.
func (h *Hierarchy) Iterate() {
	h.gatherLinks(h.links)
	for _, r := range h.roots {
		h.pushPull(r, 0)
	}
}

// Solve runs the 16 sweeps and returns the root radiosities.
func (h *Hierarchy) Solve() []float64 {
	for i := 0; i < iterations; i++ {
		h.Iterate()
	}
	return h.RootRadiosities()
}

// RootRadiosities returns the current radiosity of each input patch.
func (h *Hierarchy) RootRadiosities() []float64 {
	out := make([]float64, len(h.roots))
	for i, r := range h.roots {
		out[i] = h.nodes[r].rad
	}
	return out
}

// Room returns a closed convex room: the interior walls of a regular
// n-gon with the given emission/reflectance per wall (uniform values
// make it a white-furnace test case).
func Room(nWalls int, radius float64, emission, rho float64) []Patch {
	patches := make([]Patch, nWalls)
	for i := 0; i < nWalls; i++ {
		a0 := 2 * math.Pi * float64(i) / float64(nWalls)
		a1 := 2 * math.Pi * float64(i+1) / float64(nWalls)
		// Interior-facing: wind so the crossed-strings factors between
		// any two walls are positive.
		patches[i] = Patch{
			A:           Point{radius * math.Cos(a0), radius * math.Sin(a0)},
			B:           Point{radius * math.Cos(a1), radius * math.Sin(a1)},
			Emission:    emission,
			Reflectance: rho,
		}
	}
	return patches
}
