// Package mst implements the paper's minimum spanning tree application
// (§3.3), a simplification of the conservative DRAM algorithm of
// Leiserson and Maggs in three phases:
//
//  1. "a completely local phase that computes the local components of
//     the minimum spanning tree": Borůvka steps that merge only along
//     edges whose endpoints are both home nodes, requiring no
//     communication;
//  2. "a parallel phase that uses a simplification of a conservative
//     DRAM algorithm": distributed Borůvka rounds — components exchange
//     labels along partition borders, route per-component minimum
//     outgoing edges to component owners, hook, and resolve the merge
//     forest by pointer jumping;
//  3. "once the number of components becomes small, the program switches
//     to a mixed parallel/sequential phase": every processor reduces its
//     candidate crossing edges per component pair, and a single
//     processor assembles the remaining forest.
//
// The algorithm is conservative for the BSP model in that the number of
// label messages communicated by any processor per round is at most the
// number of its border nodes.
//
// Edges are ordered by (weight, min endpoint, max endpoint); with this
// total order the MST is unique, which makes the parallel result
// bit-comparable against the sequential Kruskal baseline.
package mst

import (
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Result is the output of an MST computation.
type Result struct {
	// Weight is the total weight of the spanning tree.
	Weight float64
	// Edges are the tree edges with global endpoints (U < V).
	Edges []graph.Edge
}

// threshold is the component count at which p processes switch to the
// mixed parallel/sequential phase.
func threshold(p int) int { return max(2*p, 32) }

// edgeLess is the global total order on edges.
func edgeLess(w1 float64, u1, v1 int32, w2 float64, u2, v2 int32) bool {
	if w1 != w2 {
		return w1 < w2
	}
	a1, b1 := minmax(u1, v1)
	a2, b2 := minmax(u2, v2)
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

func minmax(a, b int32) (int32, int32) {
	if a < b {
		return a, b
	}
	return b, a
}

// candidate is a potential MST edge between two components.
type candidate struct {
	w     float64
	compU int32 // component the edge leaves
	compV int32 // component the edge enters
	u, v  int32 // global endpoints (u in compU)
	valid bool
}

func better(a, b candidate) candidate {
	if !a.valid {
		return b
	}
	if !b.valid {
		return a
	}
	if edgeLess(a.w, a.u, a.v, b.w, b.u, b.v) {
		return a
	}
	return b
}

// procState is one processor's state across the three phases.
type procState struct {
	c     *core.Proc
	part  *graph.Part
	owner []int32 // global node -> owning process

	// comp[l] is the component label (a global node id) of local node
	// l; border entries mirror the remote owner's label as of the last
	// exchange.
	comp []int32
	// dirty marks home nodes whose label changed since the last border
	// exchange.
	dirty     []bool
	dirtyList []int32

	// parent is the merge-forest pointer for component ids owned by
	// this process.
	parent map[int32]int32

	// chosen accumulates MST edges discovered by this process.
	chosen []graph.Edge

	out []*wire.Writer
}

func newProcState(c *core.Proc, part *graph.Part, owner []int32) *procState {
	s := &procState{c: c, part: part, owner: owner}
	s.comp = make([]int32, part.NLocal())
	for l := range s.comp {
		s.comp[l] = part.Global[l]
	}
	s.dirty = make([]bool, part.NHome)
	s.parent = make(map[int32]int32)
	s.out = make([]*wire.Writer, c.P())
	for i := range s.out {
		s.out[i] = wire.NewWriter(0)
	}
	return s
}

func (s *procState) markDirty(h int32) {
	if !s.dirty[h] && len(s.part.Ghosts[h]) > 0 {
		s.dirty[h] = true
		s.dirtyList = append(s.dirtyList, h)
	}
}

func (s *procState) sendAll() {
	for q := 0; q < s.c.P(); q++ {
		if s.out[q].Len() > 0 {
			s.c.Send(q, s.out[q].Bytes())
			s.out[q].Reset()
		}
	}
}

// localPhase runs Borůvka steps that merge only along home-home edges.
// Safety: the minimum edge incident to a component is in the MST (cut
// property); a component merges locally only when that globally minimal
// incident edge happens to be local.
func (s *procState) localPhase() {
	part := s.part
	uf := graph.NewUnionFind(part.NHome)
	scans := 0
	for {
		// Minimum incident edge per local component, over ALL edges
		// (including edges to border nodes, whose weights are known
		// locally).
		best := make(map[int]candidate)
		for h := int32(0); h < int32(part.NHome); h++ {
			root := uf.Find(int(h))
			adj, w := part.Neighbors(h)
			scans += len(adj) + 1
			for j, v := range adj {
				if part.IsHome(v) && uf.Find(int(v)) == root {
					continue // internal edge
				}
				cand := candidate{
					w: w[j], u: part.Global[h], v: part.Global[v],
					compV: v, valid: true,
				}
				if part.IsHome(v) {
					cand.compV = int32(uf.Find(int(v)))
				} else {
					cand.compV = -1 // remote: blocks local merging
				}
				best[root] = better(best[root], cand)
			}
		}
		merged := false
		for root, cand := range best {
			if cand.compV < 0 {
				continue // minimum edge leaves the partition: stop here
			}
			if uf.Union(root, int(cand.compV)) {
				u, v := minmax(cand.u, cand.v)
				s.chosen = append(s.chosen, graph.Edge{U: u, V: v, W: cand.w})
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	s.c.AddWork(scans) // edge scans across all local Borůvka passes
	// Publish component labels: the component id is the minimum global
	// node id in the component (stable across processes).
	minGlobal := make([]int32, part.NHome)
	for i := range minGlobal {
		minGlobal[i] = -1
	}
	for h := 0; h < part.NHome; h++ {
		r := uf.Find(h)
		g := part.Global[h]
		if minGlobal[r] == -1 || g < minGlobal[r] {
			minGlobal[r] = g
		}
	}
	for h := 0; h < part.NHome; h++ {
		s.comp[h] = minGlobal[uf.Find(h)]
		s.markDirty(int32(h))
	}
	// Every component root this process owns gets a parent entry.
	for h := 0; h < part.NHome; h++ {
		c := s.comp[h]
		if c == part.Global[h] {
			s.parent[c] = c
		}
	}
}

// exchangeLabels sends changed home labels to border holders (superstep
// 1 of each round) and absorbs the peers' labels.
func (s *procState) exchangeLabels() {
	part := s.part
	for _, h := range s.dirtyList {
		s.dirty[h] = false
		g := uint32(part.Global[h])
		cl := uint32(s.comp[h])
		for _, q := range part.Ghosts[h] {
			w := s.out[q]
			w.Uint32(g)
			w.Uint32(cl)
		}
	}
	s.dirtyList = s.dirtyList[:0]
	s.sendAll()
	s.c.Sync()
	for {
		msg, ok := s.c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 8 {
			g := int32(r.Uint32())
			cl := int32(r.Uint32())
			if l, ok := part.LocalOf(g); ok && !part.IsHome(l) {
				s.comp[l] = cl
			}
		}
	}
}

func writeCandidate(w *wire.Writer, c candidate) {
	w.Float64(c.w)
	w.Uint32(uint32(c.compU))
	w.Uint32(uint32(c.compV))
	w.Uint32(uint32(c.u))
	w.Uint32(uint32(c.v))
}

func readCandidate(r *wire.Reader) candidate {
	return candidate{
		w:     r.Float64(),
		compU: int32(r.Uint32()),
		compV: int32(r.Uint32()),
		u:     int32(r.Uint32()),
		v:     int32(r.Uint32()),
		valid: true,
	}
}

const candBytes = 24

// boruvkaRound runs one distributed Borůvka round. It returns the
// number of live components after the round (global).
func (s *procState) boruvkaRound() int {
	part, c := s.part, s.c

	// Superstep A: refresh border labels.
	s.exchangeLabels()

	// Local reduction: minimum outgoing edge per component.
	best := make(map[int32]candidate)
	c.AddWork(len(part.Adj) + part.NHome) // full home-edge scan
	for h := int32(0); h < int32(part.NHome); h++ {
		cu := s.comp[h]
		adj, w := part.Neighbors(h)
		for j, v := range adj {
			cv := s.comp[v]
			if cv == cu {
				continue
			}
			best[cu] = better(best[cu], candidate{
				w: w[j], compU: cu, compV: cv,
				u: part.Global[h], v: part.Global[v], valid: true,
			})
		}
	}
	// Superstep B: route candidates to component owners.
	for comp, cand := range best {
		writeCandidate(s.out[s.owner[comp]], cand)
		_ = comp
	}
	s.sendAll()
	c.Sync()
	mins := make(map[int32]candidate)
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= candBytes {
			cand := readCandidate(r)
			mins[cand.compU] = better(mins[cand.compU], cand)
		}
	}
	// Hook: parent[A] = B for A's minimum outgoing edge (A,B).
	hookEdge := make(map[int32]candidate)
	for a, cand := range mins {
		s.parent[a] = cand.compV
		hookEdge[a] = cand
	}
	// Superstep C: notify owner(B) that A hooked onto B.
	for a, cand := range hookEdge {
		w := s.out[s.owner[cand.compV]]
		w.Uint32(uint32(a))
		w.Uint32(uint32(cand.compV))
	}
	s.sendAll()
	c.Sync()
	incoming := make(map[int32]map[int32]bool) // b -> set of hooked a
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 8 {
			a := int32(r.Uint32())
			b := int32(r.Uint32())
			if incoming[b] == nil {
				incoming[b] = make(map[int32]bool)
			}
			incoming[b][a] = true
		}
	}
	// Record MST edges and break 2-cycles (A→B and B→A always share
	// the same edge under a total edge order; the smaller id becomes
	// the root and records the edge).
	for a, cand := range hookEdge {
		b := cand.compV
		twoCycle := incoming[a] != nil && incoming[a][b]
		if twoCycle && a > b {
			continue // the other side records it
		}
		u, v := minmax(cand.u, cand.v)
		s.chosen = append(s.chosen, graph.Edge{U: u, V: v, W: cand.w})
	}
	for a := range hookEdge {
		b := s.parent[a]
		if incoming[a] != nil && incoming[a][b] && a < b {
			s.parent[a] = a // 2-cycle: smaller id is the new root
		}
	}
	// Pointer jumping until every owned id points at a root.
	s.pointerJump()
	// Relabel home nodes: query owner(old comp) for the root.
	s.relabelHomes()
	// Global component count: roots alive among owned ids that are
	// actually used as labels... every surviving label is a root; count
	// distinct labels owned by this process.
	liveRoots := make(map[int32]bool)
	for h := 0; h < part.NHome; h++ {
		cl := s.comp[h]
		if s.owner[cl] == int32(c.ID()) {
			liveRoots[cl] = true
		}
	}
	return collect.AllReduceInt(c, len(liveRoots), func(a, b int) int { return a + b })
}

// pointerJump repeatedly replaces parent[c] with parent[parent[c]] until
// no owned pointer changes anywhere.
func (s *procState) pointerJump() {
	c := s.c
	for {
		// Query owner(parent[x]) for parent[parent[x]].
		type q struct{ x, px int32 }
		var queries []q
		for x, px := range s.parent {
			if px != x {
				queries = append(queries, q{x, px})
			}
		}
		sort.Slice(queries, func(i, j int) bool { return queries[i].x < queries[j].x })
		for _, qu := range queries {
			w := s.out[s.owner[qu.px]]
			w.Uint32(uint32(qu.x))
			w.Uint32(uint32(qu.px))
		}
		s.sendAll()
		c.Sync()
		// Answer queries.
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= 8 {
				x := int32(r.Uint32())
				px := int32(r.Uint32())
				gp, ok := s.parent[px]
				if !ok {
					gp = px // unknown id acts as its own root
				}
				w := s.out[s.owner[x]]
				w.Uint32(uint32(x))
				w.Uint32(uint32(gp))
			}
		}
		s.sendAll()
		c.Sync()
		changed := false
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= 8 {
				x := int32(r.Uint32())
				gp := int32(r.Uint32())
				if s.parent[x] != gp {
					s.parent[x] = gp
					changed = true
				}
			}
		}
		if !collect.AllOr(c, changed) {
			return
		}
	}
}

// relabelHomes updates every home node's label to its component's root
// by querying the old label's owner. Queries carry the sender rank so
// the owner can address the reply; both legs are one superstep.
func (s *procState) relabelHomes() {
	part, c := s.part, s.c
	distinct := make(map[int32]bool)
	for h := 0; h < part.NHome; h++ {
		distinct[s.comp[h]] = true
	}
	ids := make([]int32, 0, len(distinct))
	for id := range distinct {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := s.out[s.owner[id]]
		w.Uint32(uint32(id))
		w.Uint32(uint32(c.ID()))
	}
	s.sendAll()
	c.Sync()
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 8 {
			id := int32(r.Uint32())
			from := int(r.Uint32())
			root, ok := s.parent[id]
			if !ok {
				root = id
			}
			w := s.out[from]
			w.Uint32(uint32(id))
			w.Uint32(uint32(root))
		}
	}
	s.sendAll()
	c.Sync()
	remap := make(map[int32]int32, len(ids))
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 8 {
			id := int32(r.Uint32())
			root := int32(r.Uint32())
			remap[id] = root
		}
	}
	for h := 0; h < part.NHome; h++ {
		if root, ok := remap[s.comp[h]]; ok && root != s.comp[h] {
			s.comp[h] = root
			s.markDirty(int32(h))
		}
	}
	// Roots relabeled components away from this process; keep parent
	// entries for any id we own (stale ids keep forwarding correctly
	// because pointer jumping flattened them).
}

// edgeBytes is the wire size of one MST edge record: (u, v, w) packs
// exactly into one 16-byte Green BSP packet.
const edgeBytes = 16

func writeEdge(w *wire.Writer, e graph.Edge) {
	w.Uint32(uint32(e.U))
	w.Uint32(uint32(e.V))
	w.Float64(e.W)
}

func readEdge(r *wire.Reader) graph.Edge {
	return graph.Edge{U: int32(r.Uint32()), V: int32(r.Uint32()), W: r.Float64()}
}

// endgame is the mixed parallel/sequential phase: "first uses all the
// processors to find subforests of the remaining components using edges
// that are guaranteed to be in the minimum spanning tree, and then uses
// a single processor to assemble the forests into components."
//
// Every processor reduces, per unordered component pair, its minimum
// crossing edge and sends the candidates to process 0, which finishes
// with Kruskal on the contracted graph. Each per-pair local minimum is
// either the global minimum for that pair or dominated by it, so the
// union of the candidates contains the MST of the contracted graph.
func (s *procState) endgame(comps int) Result {
	part, c := s.part, s.c
	s.exchangeLabels()
	if comps > 1 {
		c.AddWork(len(part.Adj) + part.NHome)
		type pair struct{ a, b int32 }
		best := make(map[pair]candidate)
		for h := int32(0); h < int32(part.NHome); h++ {
			cu := s.comp[h]
			adj, w := part.Neighbors(h)
			for j, v := range adj {
				cv := s.comp[v]
				if cv == cu {
					continue
				}
				a, b := minmax(cu, cv)
				k := pair{a, b}
				best[k] = better(best[k], candidate{
					w: w[j], compU: cu, compV: cv,
					u: part.Global[h], v: part.Global[v], valid: true,
				})
			}
		}
		for _, cand := range best {
			writeCandidate(s.out[0], cand)
		}
	}
	s.sendAll()
	c.Sync()
	if c.ID() == 0 {
		var cands []candidate
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= candBytes {
				cands = append(cands, readCandidate(r))
			}
		}
		c.AddWork(4 * len(cands)) // sequential assembly at process 0
		sort.Slice(cands, func(i, j int) bool {
			return edgeLess(cands[i].w, cands[i].u, cands[i].v, cands[j].w, cands[j].u, cands[j].v)
		})
		uf := make(map[int32]int32)
		var find func(x int32) int32
		find = func(x int32) int32 {
			r, ok := uf[x]
			if !ok || r == x {
				return x
			}
			root := find(r)
			uf[x] = root
			return root
		}
		for _, cand := range cands {
			ra, rb := find(cand.compU), find(cand.compV)
			if ra == rb {
				continue
			}
			uf[ra] = rb
			u, v := minmax(cand.u, cand.v)
			s.chosen = append(s.chosen, graph.Edge{U: u, V: v, W: cand.w})
		}
	}
	// Gather every chosen edge at process 0 (one packet per edge).
	if c.ID() != 0 {
		for _, e := range s.chosen {
			writeEdge(s.out[0], e)
		}
	}
	s.sendAll()
	c.Sync()
	var res Result
	if c.ID() == 0 {
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			r := wire.NewReader(msg)
			for r.Remaining() >= edgeBytes {
				s.chosen = append(s.chosen, readEdge(r))
			}
		}
		// s.chosen accumulated in map-iteration order; sum the weight
		// over the canonical edge order so its last bits are reproducible.
		res.Edges = s.chosen
		sort.Slice(res.Edges, func(i, j int) bool {
			return edgeLess(res.Edges[i].W, res.Edges[i].U, res.Edges[i].V,
				res.Edges[j].W, res.Edges[j].U, res.Edges[j].V)
		})
		for _, e := range res.Edges {
			res.Weight += e.W
		}
	}
	// Broadcast the total weight so every process returns the answer.
	res.Weight = collect.AllReduce(c, res.Weight, collect.SumFloat)
	return res
}

// run executes the three-phase MST algorithm on one BSP process,
// switching to the endgame at thresh components. All processes return
// the tree weight; process 0 additionally returns the tree edges, in
// Sequential's edge order.
func run(c *core.Proc, part *graph.Part, owner []int32, thresh int) Result {
	s := newProcState(c, part, owner)
	s.localPhase()
	comps := collect.AllReduceInt(c, s.countOwnedRoots(), func(a, b int) int { return a + b })
	for comps > thresh {
		comps = s.boruvkaRound()
	}
	return s.endgame(comps)
}

// countOwnedRoots counts distinct component labels owned by this
// process among its home nodes.
func (s *procState) countOwnedRoots() int {
	live := make(map[int32]bool)
	for h := 0; h < s.part.NHome; h++ {
		cl := s.comp[h]
		if s.owner[cl] == int32(s.c.ID()) {
			live[cl] = true
		}
	}
	return len(live)
}

// Parallel partitions g, runs the BSP algorithm and returns the MST
// (weight and edges) along with the run statistics.
func Parallel(cfg core.Config, g *graph.Graph) (Result, *core.Stats, error) {
	return parallel(cfg, g, threshold(cfg.P))
}

// parallel is Parallel with the endgame switch point given; tests move
// it to reach the pure-Borůvka and pure-endgame paths.
func parallel(cfg core.Config, g *graph.Graph, thresh int) (Result, *core.Stats, error) {
	pt := graph.PartitionStrips(g, cfg.P)
	results := make([]Result, cfg.P)
	st, err := core.Run(cfg, func(c *core.Proc) {
		results[c.ID()] = run(c, pt.Parts[c.ID()], pt.Owner, thresh)
	})
	if err != nil {
		return Result{}, nil, err
	}
	return results[0], st, nil // process 0 holds the (sorted) edge list
}

// Sequential computes the MST with Kruskal's algorithm under the same
// edge order as the parallel code, so edge lists are directly
// comparable.
func Sequential(g *graph.Graph) Result {
	list := g.EdgeList()
	sort.Slice(list, func(i, j int) bool {
		return edgeLess(list[i].W, list[i].U, list[i].V, list[j].W, list[j].U, list[j].V)
	})
	uf := graph.NewUnionFind(g.N)
	var res Result
	for _, e := range list {
		if uf.Union(int(e.U), int(e.V)) {
			res.Edges = append(res.Edges, e)
			res.Weight += e.W
			if len(res.Edges) == g.N-1 {
				break
			}
		}
	}
	return res
}
