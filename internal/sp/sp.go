// Package sp implements the paper's shortest paths application (§3.4):
// a parallel label-correcting variant of Dijkstra's algorithm in which a
// processor "communicate[s] and end[s] its superstep whenever it had
// worked on its local piece of the graph for some period of time called
// the work factor, rather than having it continue until it had
// absolutely no work left".
//
// The engine is written for K simultaneous sources because the multiple
// shortest paths application (§3.5) is "the code in the previous
// application [modified] to allow the computation of many shortest path
// trees simultaneously... one can use the same underlying (read-only)
// graph and keep data structures for each computation for the read-write
// data". Package msp wraps this engine with K = 25, the paper's choice.
//
// Label flow follows §3.4: when a home node's distance label changes,
// its owner sends the new label to every processor that holds the node
// as a border node; the receivers then relax the adjacent edges into
// their own home nodes. Each label travels as one 16-byte packet
// (node id, source index, distance). The algorithm is conservative in
// the paper's DRAM sense: message volume is bounded by the border size.
package sp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// DefaultWorkFactor is the work factor the applications pass: the
// number of priority-queue pops a processor performs before it
// communicates and ends its superstep. The paper notes "the appropriate
// way to use this algorithm is to adjust the work factor according to
// the architecture (i.e., the work factor should grow with L)", but
// chose "one work factor to optimize performance across our platforms";
// this is the analogous one-size-fits-all value, selected by the same
// procedure (the DESIGN.md A1 sweep at the largest paper size: 1000
// jointly optimizes SP and MSP model speed-ups on the SGI and Cenju
// profiles — MSP reaches 9.3 at 16 processors vs the paper's 9.4; SP
// saturates near 3.5-4.0 regardless of the factor because the Dijkstra
// frontier sweeps the strip partition nearly sequentially).
const DefaultWorkFactor = 1000

// state is the per-processor engine state for K simultaneous sources.
type state struct {
	c    *core.Proc
	part *graph.Part
	k    int
	wf   int
	// dist[s] holds source s's labels over local nodes (home+border).
	dist [][]float64
	// heaps[s] is source s's priority queue of home nodes.
	heaps []graph.DistHeap
	// borderAdj[b] lists (home node, weight) pairs adjacent to border
	// node NHome+b — the reverse edges used to relax received labels
	// into home nodes.
	borderAdj [][]borderEdge
	// changed[s] marks home nodes whose label changed since the last
	// flush; changedList[s] holds their indices.
	changed     [][]bool
	changedList [][]int32
	// outBuf accumulates one batch of 16-byte records per destination.
	outBuf []*wire.Writer
	// statusPrev[q] is process q's idle flag from the previous
	// superstep (the piggybacked termination protocol).
	statusPrev []bool
}

type borderEdge struct {
	home int32
	w    float64
}

// statusTag marks a status record; node ids are always < statusTag.
const statusTag = ^uint32(0)

func newState(c *core.Proc, part *graph.Part, k, wf int) *state {
	nl := part.NLocal()
	s := &state{c: c, part: part, k: k, wf: wf}
	s.dist = make([][]float64, k)
	s.heaps = make([]graph.DistHeap, k)
	s.changed = make([][]bool, k)
	s.changedList = make([][]int32, k)
	for i := 0; i < k; i++ {
		s.dist[i] = make([]float64, nl)
		for j := range s.dist[i] {
			s.dist[i][j] = graph.Inf
		}
		s.changed[i] = make([]bool, part.NHome)
	}
	s.borderAdj = make([][]borderEdge, nl-part.NHome)
	for h := int32(0); h < int32(part.NHome); h++ {
		adj, w := part.Neighbors(h)
		for j, v := range adj {
			if !part.IsHome(v) {
				b := int(v) - part.NHome
				s.borderAdj[b] = append(s.borderAdj[b], borderEdge{home: h, w: w[j]})
			}
		}
	}
	s.outBuf = make([]*wire.Writer, c.P())
	for i := range s.outBuf {
		s.outBuf[i] = wire.NewWriter(0)
	}
	s.statusPrev = make([]bool, c.P())
	return s
}

// improveHome lowers a home node's label and enqueues it.
func (s *state) improveHome(src int, h int32, d float64) {
	if d >= s.dist[src][h] {
		return
	}
	s.dist[src][h] = d
	s.heaps[src].Push(d, h)
	if !s.changed[src][h] && len(s.part.Ghosts[h]) > 0 {
		s.changed[src][h] = true
		s.changedList[src] = append(s.changedList[src], h)
	}
}

// relaxFrom pops up to budget home nodes across the K queues
// (round-robin) and relaxes their outgoing edges into home neighbors.
// It returns the number of pops performed.
func (s *state) relaxFrom(budget int) int {
	pops := 0
	active := true
	for pops < budget && active {
		active = false
		for src := 0; src < s.k && pops < budget; src++ {
			h := &s.heaps[src]
			for h.Len() > 0 && pops < budget {
				d, u := h.Pop()
				pops++
				if d > s.dist[src][u] {
					continue // stale entry
				}
				active = true
				adj, w := s.part.Neighbors(u)
				for j, v := range adj {
					if s.part.IsHome(v) {
						s.improveHome(src, v, d+w[j])
					}
					// Border neighbors are relaxed by their owner when
					// it receives u's new label.
				}
				s.c.AddWork(1 + len(adj)) // one pop + its relaxations
				break                     // round-robin to the next source
			}
		}
	}
	return pops
}

// flush sends one label packet per (changed home node, ghost process,
// source) and returns the number of packets sent.
func (s *state) flush() int {
	sent := 0
	for src := 0; src < s.k; src++ {
		for _, h := range s.changedList[src] {
			s.changed[src][h] = false
			d := s.dist[src][h]
			g := uint32(s.part.Global[h])
			for _, q := range s.part.Ghosts[h] {
				w := s.outBuf[q]
				w.Uint32(g)
				w.Uint32(uint32(src))
				w.Float64(d)
				sent++
			}
		}
		s.changedList[src] = s.changedList[src][:0]
	}
	return sent
}

// absorb processes incoming label packets: improved border labels are
// relaxed into adjacent home nodes. Status records update statusPrev.
func (s *state) absorb() {
	for {
		msg, ok := s.c.Recv()
		if !ok {
			return
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			tag := r.Uint32()
			second := r.Uint32()
			val := r.Float64()
			if tag == statusTag {
				s.statusPrev[second] = val != 0
				continue
			}
			b, ok := s.part.LocalOf(int32(tag))
			if !ok || s.part.IsHome(b) {
				continue // not our border copy (should not happen)
			}
			src := int(second)
			if val < s.dist[src][b] {
				s.dist[src][b] = val
				edges := s.borderAdj[int(b)-s.part.NHome]
				for _, e := range edges {
					s.improveHome(src, e.home, val+e.w)
				}
				s.c.AddWork(1 + len(edges))
			}
		}
	}
}

// queuesEmpty reports whether every source queue is drained of live
// entries.
func (s *state) queuesEmpty() bool {
	for src := range s.heaps {
		h := &s.heaps[src]
		for h.Len() > 0 {
			d, u := h.Min()
			if d <= s.dist[src][u] {
				return false
			}
			h.Pop() // discard stale
		}
	}
	return true
}

// run executes the engine for the given sources on one BSP process,
// ending a superstep after every workFactor (>= 1) queue pops, and
// returns this process's label arrays (indexed by source, then by local
// node).
func run(c *core.Proc, part *graph.Part, srcs []int32, workFactor int) [][]float64 {
	s := newState(c, part, len(srcs), workFactor)
	for i, src := range srcs {
		if l, ok := part.LocalOf(src); ok && part.IsHome(l) {
			s.improveHome(i, l, 0)
		}
	}
	for {
		s.relaxFrom(s.wf)
		sent := s.flush()
		idle := sent == 0 && s.queuesEmpty()
		// Piggyback the termination flag: one status packet to every
		// other process, every superstep.
		for q := 0; q < c.P(); q++ {
			if q == c.ID() {
				s.statusPrev[q] = idle
				continue
			}
			w := s.outBuf[q]
			w.Uint32(statusTag)
			w.Uint32(uint32(c.ID()))
			if idle {
				w.Float64(1)
			} else {
				w.Float64(0)
			}
		}
		for q := 0; q < c.P(); q++ {
			if s.outBuf[q].Len() > 0 {
				c.Send(q, s.outBuf[q].Bytes())
				s.outBuf[q].Reset()
			}
		}
		c.Sync()
		s.absorb()
		// If every process was idle last superstep, nothing was sent,
		// so nothing arrived: the system is quiescent.
		allIdle := true
		for _, f := range s.statusPrev {
			if !f {
				allIdle = false
				break
			}
		}
		if allIdle && s.queuesEmpty() {
			return s.dist
		}
	}
}

// Parallel partitions g, runs the BSP engine and assembles global label
// arrays (one per source). It also returns the run statistics.
func Parallel(cfg core.Config, g *graph.Graph, srcs []int32, workFactor int) ([][]float64, *core.Stats, error) {
	if workFactor < 1 {
		return nil, nil, fmt.Errorf("sp: work factor must be >= 1, got %d", workFactor)
	}
	pt := graph.PartitionStrips(g, cfg.P)
	out := make([][]float64, len(srcs))
	for i := range out {
		out[i] = make([]float64, g.N)
		for j := range out[i] {
			out[i][j] = math.Inf(1)
		}
	}
	st, err := core.Run(cfg, func(c *core.Proc) {
		part := pt.Parts[c.ID()]
		dist := run(c, part, srcs, workFactor)
		// Each process owns a disjoint set of home nodes, so these
		// writes never overlap across goroutines.
		for s := range srcs {
			for h := 0; h < part.NHome; h++ {
				out[s][part.Global[h]] = dist[s][h]
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, st, nil
}

// ParallelSingle is the single-source application entry point (§3.4).
func ParallelSingle(cfg core.Config, g *graph.Graph, src int32, workFactor int) ([]float64, *core.Stats, error) {
	dists, st, err := Parallel(cfg, g, []int32{src}, workFactor)
	if err != nil {
		return nil, nil, err
	}
	return dists[0], st, nil
}
