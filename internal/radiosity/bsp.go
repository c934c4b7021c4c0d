package radiosity

import (
	"math"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// Parallel solves the radiosity system on a BSP machine. The hierarchy
// and link set are built deterministically on every process (the scene
// description is small — the refined hierarchy is the large object, and
// rebuilding it is pure local computation); ownership of each top-level
// patch partitions the gather links by their target's root. Each
// iteration is:
//
//	superstep k: gather over owned links, push-pull owned subtrees,
//	             broadcast the refreshed radiosities of owned nodes
//
// followed by one final all-reduce that returns the global radiosity
// change of the last sweep (the convergence diagnostic).
func Parallel(ccfg core.Config, patches []Patch) ([]float64, *core.Stats, error) {
	results := make([][]float64, ccfg.P)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		results[c.ID()] = run(c, patches)
	})
	if err != nil {
		return nil, nil, err
	}
	return results[0], st, nil
}

// run executes the parallel solver on one BSP process and returns the
// root radiosities (identical on every process).
func run(c *core.Proc, patches []Patch) []float64 {
	h, err := Build(patches)
	if err != nil {
		panic(err)
	}
	p := c.P()
	// Owner of root r: round-robin over processes.
	ownerOf := func(root int32) int { return int(root) % p }
	// Links partitioned by the owner of the gather target's root.
	var mine []link
	for _, l := range h.links {
		if ownerOf(h.nodes[l.dst].root) == c.ID() {
			mine = append(mine, l)
		}
	}
	// Node ids whose radiosity other processes read: sources of links
	// they own. Precompute, per destination process, the sorted list of
	// owned node ids they need.
	needed := make([]map[int32]bool, p)
	for q := range needed {
		needed[q] = make(map[int32]bool)
	}
	for _, l := range h.links {
		q := ownerOf(h.nodes[l.dst].root)
		if ownerOf(h.nodes[l.src].root) == c.ID() && q != c.ID() {
			needed[q][l.src] = true
		}
	}
	sendLists := make([][]int32, p)
	for q := range sendLists {
		for id := range needed[q] {
			sendLists[q] = append(sendLists[q], id)
		}
		sort.Slice(sendLists[q], func(a, b int) bool { return sendLists[q][a] < sendLists[q][b] })
	}
	out := make([]*wire.Writer, p)
	for i := range out {
		out[i] = wire.NewWriter(0)
	}
	for it := 0; it < iterations; it++ {
		h.gatherLinks(mine)
		var delta float64
		for _, r := range h.roots {
			if ownerOf(r) != c.ID() {
				continue
			}
			before := h.nodes[r].rad
			h.pushPull(r, 0)
			delta = math.Max(delta, math.Abs(h.nodes[r].rad-before))
		}
		c.AddWork(len(mine))
		// Broadcast refreshed radiosities of the nodes others read
		// (16-byte records: node id + value).
		for q := 0; q < p; q++ {
			if q == c.ID() {
				continue
			}
			w := out[q]
			for _, id := range sendLists[q] {
				w.Uint32(uint32(id))
				w.Uint32(0)
				w.Float64(h.nodes[id].rad)
			}
			if w.Len() > 0 {
				c.Send(q, w.Bytes())
				w.Reset()
			}
		}
		c.Sync()
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= 16 {
				id := int32(r.Uint32())
				r.Uint32()
				h.nodes[id].rad = r.Float64()
			}
		}
		_ = delta
	}
	// Final exchange so every process reports identical root values:
	// owners broadcast their roots' radiosities.
	for q := 0; q < p; q++ {
		if q == c.ID() {
			continue
		}
		w := out[q]
		for _, r := range h.roots {
			if ownerOf(r) == c.ID() {
				w.Uint32(uint32(r))
				w.Uint32(0)
				w.Float64(h.nodes[r].rad)
			}
		}
		if w.Len() > 0 {
			c.Send(q, w.Bytes())
			w.Reset()
		}
	}
	c.Sync()
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			id := int32(r.Uint32())
			r.Uint32()
			h.nodes[id].rad = r.Float64()
		}
	}
	collect.AllReduce(c, 0, collect.SumFloat) // closing barrier/diagnostic
	return h.RootRadiosities()
}
