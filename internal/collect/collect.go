// Package collect provides collective operations built exclusively from
// the three Green BSP primitives (Send/Recv/Sync).
//
// The paper argues (§1.3) that, unlike PVM/MPI, the BSP model "assumes a
// very small set of basic functions and (at least in theory) requires any
// other operations to be implemented on top of these functions"; this
// package is that layer. Section 4 names broadcast as the kind of simple
// subroutine whose cost the model predicts well; the broadcast
// benchmarks (DESIGN.md E2) set Broadcast against a two-phase broadcast
// kept beside them in the tests.
//
// Every collective documents its BSP cost as (h, s): the h-relation units
// and supersteps it consumes. All collectives must be called collectively
// — by every process in the same superstep.
package collect

import (
	"math"

	"repro/internal/core"
	"repro/internal/wire"
)

// clone copies a received view out of the transport's receive buffer.
// Recv views are only valid until the caller's next Sync (see
// core.Proc.Recv); collectives return durable data, so anything handed
// back to the caller is copied first.
func clone(b []byte) []byte {
	return append([]byte(nil), b...)
}

// Broadcast distributes data from root to all processes and returns it.
// Cost: h = (p-1)·|data| at the root, s = 1.
func Broadcast(c *core.Proc, root int, data []byte) []byte {
	if c.ID() == root {
		for i := 0; i < c.P(); i++ {
			if i != root {
				c.Send(i, data)
			}
		}
	}
	c.Sync()
	if c.ID() == root {
		return data
	}
	msg, ok := c.Recv()
	if !ok {
		panic("collect: Broadcast received nothing")
	}
	return clone(msg)
}

// AllReduce combines one float64 per process with op and returns the
// result on every process. op must be commutative and associative.
// Cost: h = p-1, s = 1.
func AllReduce(c *core.Proc, x float64, op func(a, b float64) float64) float64 {
	w := wire.NewWriter(8)
	w.Float64(x)
	for i := 0; i < c.P(); i++ {
		if i != c.ID() {
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	acc := x
	for {
		msg, ok := c.Recv()
		if !ok {
			return acc
		}
		acc = op(acc, wire.NewReader(msg).Float64())
	}
}

// AllReduceInt is AllReduce for int values.
func AllReduceInt(c *core.Proc, x int, op func(a, b int) int) int {
	w := wire.NewWriter(8)
	w.Int(x)
	for i := 0; i < c.P(); i++ {
		if i != c.ID() {
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	acc := x
	for {
		msg, ok := c.Recv()
		if !ok {
			return acc
		}
		acc = op(acc, wire.NewReader(msg).Int())
	}
}

// AllOr returns the disjunction of every process's flag.
func AllOr(c *core.Proc, flag bool) bool {
	x := 0
	if flag {
		x = 1
	}
	return AllReduceInt(c, x, func(a, b int) int { return a + b }) != 0
}

// GroupFanout returns the branching factor b = ⌈√p⌉ of the two-phase
// reduction tree over p processes: ranks are partitioned into ⌈p/b⌉
// contiguous groups of (at most) b members, each led by its lowest
// rank. Concentrating p messages through √p group leaders caps any
// single rank's per-superstep receive volume at ⌈√p⌉ messages instead
// of p — the standard BSP fix for a root that would otherwise absorb
// an O(p²)-unit h-relation (psort's splitter reduction is the staged,
// checkpointable unrolling of this tree).
func GroupFanout(p int) int {
	if p <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(p))))
}

// GroupLeader returns the leader of the group containing rank id for
// the given fanout: the lowest rank of id's contiguous group.
func GroupLeader(id, fanout int) int {
	return id - id%fanout
}

// MaxFloat is an AllReduce operator.
func MaxFloat(a, b float64) float64 { return math.Max(a, b) }

// SumFloat is an AllReduce operator.
func SumFloat(a, b float64) float64 { return a + b }
