package nbody

import "math"

// maxDepth bounds the octree depth; bodies that still collide at this
// depth are merged into a single aggregate leaf (they are closer than
// any force resolution we need under softening).
const maxDepth = 64

// noChild marks an empty child slot.
const noChild = int32(-1)

// treeNode is one octree cell. A leaf holds an aggregated point mass
// (one body, or several coincident ones); an internal node holds up to
// eight children and the center of mass of its subtree.
type treeNode struct {
	center   Vec3
	half     float64
	com      Vec3
	mass     float64
	children [8]int32
	leaf     bool
	nbodies  int32
}

// Tree is a Barnes-Hut octree.
type Tree struct {
	nodes []treeNode
	root  int32
}

// NewTree builds an octree over the bodies. The bounding cube is the
// smallest cube covering lo..hi; callers in the parallel code pass the
// *global* bounding box so that local trees are structurally consistent
// with the global tree ("whose structure is consistent with that of the
// global BH tree constructed by the sequential algorithm").
func NewTree(bodies []Body, lo, hi Vec3) *Tree {
	t := &Tree{}
	center := lo.Add(hi).Scale(0.5)
	half := 0.0
	for k := 0; k < 3; k++ {
		half = math.Max(half, (hi[k]-lo[k])/2)
	}
	if half == 0 {
		half = 1
	}
	half *= 1.0001 // strict containment under floating-point round-off
	t.root = t.newNode(center, half)
	for i := range bodies {
		t.insert(t.root, bodies[i].Pos, bodies[i].Mass, 0)
	}
	t.summarize(t.root)
	return t
}

func (t *Tree) newNode(center Vec3, half float64) int32 {
	t.nodes = append(t.nodes, treeNode{center: center, half: half, leaf: true, children: [8]int32{noChild, noChild, noChild, noChild, noChild, noChild, noChild, noChild}})
	return int32(len(t.nodes) - 1)
}

// octant returns the child index of pos relative to center.
func octant(center, pos Vec3) int {
	o := 0
	for k := 0; k < 3; k++ {
		if pos[k] >= center[k] {
			o |= 1 << k
		}
	}
	return o
}

func childCenter(center Vec3, half float64, o int) Vec3 {
	q := half / 2
	c := center
	for k := 0; k < 3; k++ {
		if o&(1<<k) != 0 {
			c[k] += q
		} else {
			c[k] -= q
		}
	}
	return c
}

// insert adds a point mass to the subtree at n.
func (t *Tree) insert(n int32, pos Vec3, mass float64, depth int) {
	nd := &t.nodes[n]
	if nd.leaf {
		if nd.nbodies == 0 {
			nd.com, nd.mass, nd.nbodies = pos, mass, 1
			return
		}
		if depth >= maxDepth {
			// Aggregate coincident bodies.
			total := nd.mass + mass
			nd.com = nd.com.Scale(nd.mass / total).Add(pos.Scale(mass / total))
			nd.mass = total
			nd.nbodies++
			return
		}
		// Split: push the resident body down, then fall through.
		oldPos, oldMass, oldN := nd.com, nd.mass, nd.nbodies
		nd.leaf = false
		nd.mass, nd.com, nd.nbodies = 0, Vec3{}, 0
		t.pushDown(n, oldPos, oldMass, oldN, depth)
		nd = &t.nodes[n]
	}
	o := octant(nd.center, pos)
	c := nd.children[o]
	if c == noChild {
		c = t.newNode(childCenter(nd.center, nd.half, o), nd.half/2)
		t.nodes[n].children[o] = c
	}
	t.insert(c, pos, mass, depth+1)
}

// pushDown reinserts an aggregated leaf payload into a fresh child.
func (t *Tree) pushDown(n int32, pos Vec3, mass float64, nb int32, depth int) {
	nd := &t.nodes[n]
	o := octant(nd.center, pos)
	c := t.newNode(childCenter(nd.center, nd.half, o), nd.half/2)
	t.nodes[n].children[o] = c
	ch := &t.nodes[c]
	ch.com, ch.mass, ch.nbodies = pos, mass, nb
}

// summarize fills center-of-mass data bottom-up.
func (t *Tree) summarize(n int32) (Vec3, float64, int32) {
	nd := &t.nodes[n]
	if nd.leaf {
		return nd.com.Scale(nd.mass), nd.mass, nd.nbodies
	}
	var wsum Vec3
	var mass float64
	var count int32
	for _, c := range nd.children {
		if c == noChild {
			continue
		}
		w, m, k := t.summarize(c)
		wsum = wsum.Add(w)
		mass += m
		count += k
	}
	nd.mass, nd.nbodies = mass, count
	if mass > 0 {
		nd.com = wsum.Scale(1 / mass)
	}
	return wsum, mass, count
}

// NBodies returns the number of bodies in the tree.
func (t *Tree) NBodies() int32 { return t.nodes[t.root].nbodies }

// Mass returns the total mass in the tree.
func (t *Tree) Mass() float64 { return t.nodes[t.root].mass }

// Force returns the softened acceleration at pos under the θ-criterion.
// A body located exactly at a leaf's position contributes zero force to
// itself (the softened kernel vanishes at distance 0), so no self
// exclusion is needed. The returned count is the number of interactions
// evaluated — the per-body load measure used for ORB rebalancing.
func (t *Tree) Force(pos Vec3, theta, eps float64) (Vec3, int) {
	eps2 := eps * eps
	var acc Vec3
	interactions := 0
	stack := make([]int32, 0, 64)
	stack = append(stack, t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[n]
		if nd.mass == 0 {
			continue
		}
		if nd.leaf {
			accumulate(&acc, pos, nd.com, nd.mass, eps2)
			interactions++
			continue
		}
		d := nd.com.Sub(pos)
		dist := math.Sqrt(d.Norm2())
		if 2*nd.half < theta*dist {
			accumulate(&acc, pos, nd.com, nd.mass, eps2)
			interactions++
			continue
		}
		for _, c := range nd.children {
			if c != noChild {
				stack = append(stack, c)
			}
		}
	}
	return acc, interactions
}

// Box is an axis-aligned box, used for ORB domains.
type Box struct {
	Lo, Hi Vec3
}

// Contains reports whether pos lies in the box (half-open on the upper
// faces, so ORB domains tile space without overlap).
func (b Box) Contains(pos Vec3) bool {
	for k := 0; k < 3; k++ {
		if pos[k] < b.Lo[k] || pos[k] >= b.Hi[k] {
			return false
		}
	}
	return true
}

// distToPoint returns the minimum distance from the box to a point.
func (b Box) distToPoint(q Vec3) float64 {
	var d2 float64
	for k := 0; k < 3; k++ {
		if q[k] < b.Lo[k] {
			d2 += (b.Lo[k] - q[k]) * (b.Lo[k] - q[k])
		} else if q[k] > b.Hi[k] {
			d2 += (q[k] - b.Hi[k]) * (q[k] - b.Hi[k])
		}
	}
	return math.Sqrt(d2)
}

// EssentialPoint is one entry of an essential tree: an aggregated point
// mass that is guaranteed acceptable (under θ) for every body in the
// destination domain.
type EssentialPoint struct {
	Pos  Vec3
	Mass float64
}

// Essential extracts the essential tree for a remote domain: walking
// from the root, a cell whose size passes the θ-criterion with respect
// to the *nearest* point of the domain is shipped as a single point
// mass; otherwise it is opened, and leaves ship their aggregated
// payloads. Every body in the domain would have accepted each shipped
// cell, so the receiver's forces match a traversal of the full tree.
func (t *Tree) Essential(domain Box, theta float64) []EssentialPoint {
	var out []EssentialPoint
	var walk func(n int32)
	walk = func(n int32) {
		nd := &t.nodes[n]
		if nd.mass == 0 {
			return
		}
		if nd.leaf {
			out = append(out, EssentialPoint{Pos: nd.com, Mass: nd.mass})
			return
		}
		dmin := domain.distToPoint(nd.com)
		if 2*nd.half < theta*dmin {
			out = append(out, EssentialPoint{Pos: nd.com, Mass: nd.mass})
			return
		}
		for _, c := range nd.children {
			if c != noChild {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// Sequential advances the system steps iterations with the sequential
// Barnes-Hut algorithm.
func Sequential(bodies []Body, steps int) {
	acc := make([]Vec3, len(bodies))
	for s := 0; s < steps; s++ {
		lo, hi := Bounds(bodies)
		t := NewTree(bodies, lo, hi)
		for i := range bodies {
			acc[i], _ = t.Force(bodies[i].Pos, theta, eps)
		}
		Step(bodies, acc, dt)
	}
}
