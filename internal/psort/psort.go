// Package psort implements BSP parallel sorting of float64 values by
// oversampling-based sample sort — the kind of "fairly simple subroutine
// (i.e., broadcast or sorting)" for which §4 of the paper says the BSP
// cost model's curve-fitting works best. It is an extension experiment
// (DESIGN.md E1) with a fully predictable cost shape, following the
// regular-oversampling design of Gerbessiotis & Siniolakis (PAPERS.md):
//
//	superstep 1: local sort, m = 2ℓp evenly spaced tagged samples to
//	             the group leader (h ≤ ⌈√p⌉·m sample tuples at any leader)
//	superstep 2: ⌈p/⌈√p⌉⌉ leaders merge their group's runs and forward
//	             them to rank 0 (⌈√p⌉-bounded message fan-in at every
//	             rank — not the old p-message funnel)
//	superstep 3: rank 0 selects p−1 tagged splitters, broadcasts
//	             (h = p·(p−1) tuples)
//	superstep 4: all-to-all redistribution of the sorted runs
//	             (h ≤ (1+1/ℓ)·n/p elements per process)
//
// so S = 4, H is dominated by the n/p-element data exchange, and the
// oversampling ratio ℓ (DefaultRatio on the SGI profile) bounds any
// rank's final share at (1+1/ℓ)·n/p plus a small discretization term
// (ImbalanceBound) — even on all-equal or adversarially duplicated
// inputs, because samples and splitters carry (rank, index) origin
// tags that make every key distinct in the tagged order.
//
// The order is floatKey's: an unsigned key of a value's IEEE bits (NaNs
// first, −0 equal to +0), so the local sort is an LSD radix sort on keys
// and the merge compares keys, never floats. No receive path re-sorts:
// sample runs arrive sorted in the tagged order and are merged, and each
// routed run arrives sorted, so a merge tree — runs ordered by source
// rank, merged in adjacent pairs over ⌈log₂ k⌉ levels, the first reading
// the inbox's zero-copy frame views element by element — writes the
// final share into the rank's own run buffer, ping-ponging with the
// radix sort's scratch run. Both have room for ImbalanceBound elements
// (never more than n); the run buffer is dead once superstep 4's Send
// has copied its pieces out. The run buffers are the windows of one
// slab, so Parallel concatenates the shares by moving each down to the
// end of the one before, and the slab's prefix is the result. Ties
// between runs go to the lower source rank read from each run's header,
// so the share does not depend on the order in which the transport
// delivered the runs.
package psort

import (
	"cmp"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/cost"
)

// oversample is the oversampling ratio ℓ of a sort of n elements over
// p ranks: DefaultRatio on the SGI profile at p. Every rank of a run
// samples at this one density.
func oversample(n, p int) int {
	return DefaultRatio(cost.SGI.Params(p), n, p, elemBytes)
}

// tagged is an element with its origin coordinates. The lexicographic
// order (key, rank, index) is a strict total order even when keys
// collide, which is what keeps splitter selection and routing
// well-defined on duplicate-heavy inputs.
type tagged struct {
	v    float64
	rank int32
	idx  int32
}

// cmpTag compares in the tagged total order.
func cmpTag(a, b tagged) int {
	return cmp.Or(cmp.Compare(floatKey(math.Float64bits(a.v)), floatKey(math.Float64bits(b.v))), cmp.Compare(a.rank, b.rank), cmp.Compare(a.idx, b.idx))
}

// appendTo appends t's (element, rank, idx) encoding to b.
func (t tagged) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.v))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.rank))
	return binary.LittleEndian.AppendUint32(b, uint32(t.idx))
}

// appendTags decodes msg, a sequence of (element, rank, idx) encodings,
// onto out.
func appendTags(out []tagged, msg []byte) []tagged {
	for ; len(msg) >= elemBytes+tagLen; msg = msg[elemBytes+tagLen:] {
		out = append(out, tagged{v: loadFloat(msg), rank: int32(binary.LittleEndian.Uint32(msg[elemBytes:])),
			idx: int32(binary.LittleEndian.Uint32(msg[elemBytes+4:]))})
	}
	return out
}

// state is the whole per-rank state of the sample sort between any two
// supersteps: which boundary the rank has crossed, the oversampling
// ratio, and its data. Everything else a stage needs (sample runs,
// condensed runs, splitters, routed elements) arrives in the inbox of
// the superstep that starts the stage, so a (stage, ratio, data)
// triple plus the undelivered inbox restarts the sort from any
// boundary. A checkpoint keeps only the data beside the inbox: the
// stage is the boundary's superstep number and the ratio is computed
// again from the input. The scratch run is working memory,
// not state: the radix sort's ping-pong buffer in superstep 1 and the
// merge tree's in the final stage, sized like data's array so both fit.
// A rank resumed past superstep 1 has none, and its merge allocates one.
type state struct {
	// stage is the number of superstep boundaries crossed when run
	// starts: 0 = nothing sent yet; 1 = sample runs sent (group
	// leaders' inboxes hold them); 2 = merged runs forwarded (rank 0's
	// inbox holds them); 3 = splitters broadcast (every inbox holds
	// them); 4 = data routed (every inbox holds this rank's final run
	// set).
	stage   int
	l       int // oversampling ratio ℓ
	data    []float64
	scratch []float64
}

const (
	// sampleHdrLen prefixes each sample run and each routed run with the
	// origin rank (uint32 LE).
	sampleHdrLen = 4
	// tagLen is the encoded size of a (rank, idx) tag.
	tagLen = 8
)

// sampleCount is m, the per-rank sample count for ratio l on p ranks.
// The factor 2 over the nominal ℓ·p pays for the boundary slack of the
// partition bound — the p sample gaps straddling a bucket's edges add
// n/m elements on top of the n/p interior term — keeping the
// end-to-end bound at (1+1/ℓ)·n/p (see ImbalanceBound).
func sampleCount(l, p int) int {
	return 2 * l * p
}

// run executes the sort from the state's current stage, which is the
// superstep the rank is at.
func (s *state) run(c *core.Proc) []float64 {
	p := c.P()
	me := int32(c.ID())
	fanout := collect.GroupFanout(p)
	var share []float64 // the merge's destination, set when superstep 4 routes
	switch s.stage {
	case 0:
		// Superstep 1: local sort, whose scratch run stays with the
		// rank for the final merge; ship the tagged sample run to this
		// rank's group leader (leaders ship to themselves — samples
		// must ride the transport, not rank-local memory, so that the
		// (stage, data, inbox) snapshot stays the complete state).
		s.scratch = make([]float64, cap(s.data))
		sortLocal(s.data, s.scratch)
		c.AddWork(nLogN(len(s.data)))
		if p > 1 {
			// Regular sampling: k = min(m, n) positions j·n/k, evenly
			// spaced over the sorted run.
			n := len(s.data)
			k := min(sampleCount(s.l, p), n)
			buf := binary.LittleEndian.AppendUint32(make([]byte, 0, sampleHdrLen+k*(elemBytes+4)), uint32(me))
			for j := range k {
				i := j * n / k
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.data[i]))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			}
			c.Send(collect.GroupLeader(c.ID(), fanout), buf)
		}
		c.Sync()
		fallthrough
	case 1:
		// Superstep 2: group leaders merge their members' sample runs
		// and forward one tagged run to rank 0, which thus absorbs
		// ⌈p/⌈√p⌉⌉ messages instead of p. Nothing is dropped: condensing
		// at the leaders would skew the per-rank sample densities the
		// selection bound depends on, so the sample *volume* at the
		// root is the price of the deterministic imbalance bound.
		if p > 1 && c.ID() == collect.GroupLeader(c.ID(), fanout) {
			all := recvTagged(c, true)
			buf := make([]byte, 0, len(all)*(elemBytes+tagLen))
			for _, t := range all {
				buf = t.appendTo(buf)
			}
			c.Send(0, buf)
		}
		c.Sync()
		fallthrough
	case 2:
		// Superstep 3: rank 0 merges the forwarded sample runs, selects
		// p−1 tagged splitters at regular positions and broadcasts them.
		// The broadcast is p·(p−1) tiny tuples — the small term of the
		// cost shape; the sample volume never concentrates on one rank.
		if p > 1 && c.ID() == 0 {
			u := recvTagged(c, false)
			buf := make([]byte, 0, 4+(p-1)*(elemBytes+tagLen))
			nspl := 0
			if len(u) > 0 {
				nspl = p - 1
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nspl))
			for j := 1; j <= nspl; j++ {
				buf = u[j*len(u)/p].appendTo(buf)
			}
			for q := 0; q < p; q++ {
				c.Send(q, buf)
			}
		}
		c.Sync()
		fallthrough
	case 3:
		// Superstep 4: cut the sorted local run at the splitters (one
		// binary search per splitter — both sequences are sorted in the
		// tagged order) and route each contiguous piece. Each piece is
		// encoded behind a 4-byte origin header into one reused scratch
		// buffer, which Send copies straight into the transport's
		// pooled per-pair batch.
		if p > 1 {
			msg, ok := c.Recv()
			if !ok {
				panic("psort: missing splitter broadcast")
			}
			// msg is [u32 count] then count tags in tagged order.
			spl := appendTags(make([]tagged, 0, binary.LittleEndian.Uint32(msg)), msg[4:])
			cuts := cutRun(s.data, me, spl, p)
			maxPiece := 0
			for q := 0; q < p; q++ {
				maxPiece = max(maxPiece, cuts[q+1]-cuts[q])
			}
			scratch := make([]byte, 0, sampleHdrLen+maxPiece*elemBytes)
			for q := 0; q < p; q++ {
				piece := s.data[cuts[q]:cuts[q+1]]
				if len(piece) == 0 {
					continue
				}
				scratch = appendFloats(binary.LittleEndian.AppendUint32(scratch[:0], uint32(me)), piece)
				c.Send(q, scratch)
			}
			c.AddWork(len(s.data))
			// The routed elements now live in the exchange; they come
			// back through the inbox, so the local copy is no longer
			// part of the restartable state. Its array, sized for the
			// final share, is where the merge writes.
			share = s.data[:0]
			s.data = nil
		}
		c.Sync()
		fallthrough
	default:
		// Final (non-communicating) stage: the merge tree over the
		// routed runs, read in place from the inbox's frame views,
		// into share's array with the scratch run between levels; it
		// allocates only after a restore, whose decoded run has no room
		// to spare and which has no scratch run.
		if p == 1 {
			return s.data
		}
		runs := make([][]byte, 0, c.Pending())
		for msg, ok := c.Recv(); ok; msg, ok = c.Recv() {
			runs = append(runs, msg)
		}
		out := mergeInto(share, s.scratch, runs)
		c.AddWork(nLogN(len(out)))
		return out
	}
}

// recvTagged drains the inbox into tagged samples in the tagged order.
// Sample runs (withHdr) carry one origin-rank header and per-sample
// indices; leader-forwarded runs carry full (rank, idx) tags per sample.
// Every run arrives sorted in the tagged order — a sample run is its
// source's sorted local run read at rising positions, a forwarded run a
// leader's merge — so the runs are merged, not re-sorted; the tagged
// order is strict, so the merge yields the sort's sequence exactly.
func recvTagged(c *core.Proc, withHdr bool) []tagged {
	var out []tagged
	ends := make([]int, 0, c.Pending())
	for msg, ok := c.Recv(); ok; msg, ok = c.Recv() {
		if !withHdr {
			out = appendTags(out, msg)
		} else {
			src := int32(binary.LittleEndian.Uint32(msg))
			for body := msg[sampleHdrLen:]; len(body) >= elemBytes+4; body = body[elemBytes+4:] {
				idx := int32(binary.LittleEndian.Uint32(body[elemBytes:]))
				out = append(out, tagged{v: loadFloat(body), rank: src, idx: idx})
			}
		}
		ends = append(ends, len(out))
	}
	out = mergeTagged(out, ends)
	c.AddWork(nLogN(len(out)))
	return out
}

// mergeTagged merges the runs laid end to end in ts, each sorted in the
// tagged order — run r ends at ends[r] and starts where run r−1 ends —
// in adjacent pairs over ⌈log₂ k⌉ levels, ping-ponging with one scratch
// array, and returns the merged sequence from whichever array the last
// level wrote. It reuses ends for each level's run ends.
func mergeTagged(ts []tagged, ends []int) []tagged {
	if len(ends) <= 1 {
		return ts
	}
	a, b := ts, make([]tagged, len(ts))
	for len(ends) > 1 {
		lo, k := 0, 0
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[min(r+1, len(ends)-1)]
			mergeTags(b[lo:hi], a[lo:mid], a[mid:hi])
			ends[k] = hi
			k++
			lo = hi
		}
		ends = ends[:k]
		a, b = b, a
	}
	return a
}

// mergeTags merges the runs x and y, sorted in the tagged order, into
// out, which holds exactly their elements.
func mergeTags(out, x, y []tagged) {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if cmpTag(y[j], x[i]) < 0 {
			out[i+j] = y[j]
			j++
		} else {
			out[i+j] = x[i]
			i++
		}
	}
	copy(out[i+j:], x[i:])
	copy(out[i+j:], y[j:])
}

// cutRun returns the p+1 cut positions of the sorted local run against
// the tagged splitters: bucket q is data[cuts[q]:cuts[q+1]], the
// elements e with spl[q−1] ≤ e < spl[q] in the tagged order. The run
// is sorted in the tagged order, so "element j sorts before the
// splitter" is monotone in j and each cut is a binary search, started
// from the previous cut so the cuts stay monotone; duplicate splitters
// simply yield empty middle buckets, and every element lands in exactly
// one bucket (routing totality).
func cutRun(data []float64, rank int32, spl []tagged, p int) []int {
	cuts := make([]int, p+1)
	i := 0
	for q := 1; q < p; q++ {
		if q-1 < len(spl) {
			lo := i
			i = lo + sort.Search(len(data)-lo, func(j int) bool {
				return cmpTag(tagged{v: data[lo+j], rank: rank, idx: int32(lo + j)}, spl[q-1]) >= 0
			})
		}
		cuts[q] = i
	}
	cuts[p] = len(data)
	return cuts
}

// nLogN is the comparison-count work unit of a local sort or merge.
func nLogN(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return n * max(lg, 1)
}

// runWindow is the capacity of a rank's run buffer in a sort of n
// elements over p ranks: room for its final share, ImbalanceBound(n, p,
// l), but never for more than the n elements that exist. Either term is
// at least ⌈n/p⌉, so the rank's even input share fits too.
func runWindow(n, p, l int) int {
	return min(n, ImbalanceBound(n, p, l))
}

// runBuffer copies rank q's input into window q of slab, which is cut
// into equal windows of w elements, and returns it with the window's
// room, so the merge can write the share there and gather can move it
// to its place in the result.
func runBuffer(slab []float64, w, q int, local []float64) []float64 {
	buf := slab[q*w : q*w+len(local) : (q+1)*w]
	copy(buf, local)
	return buf
}

// gather returns the shares concatenated in rank order. A fault-free
// merge leaves share q at the start of window q of slab (len(parts)
// equal windows), so moving each share down to the running total with
// copy concatenates them in place and the slab's prefix is the result.
// A share found elsewhere — a restored rank merges into a new array —
// or one that would overwrite the next window before its share has
// moved sends every share to a new array instead.
func gather(slab []float64, parts [][]float64) []float64 {
	w, total := 0, 0
	if len(parts) > 0 {
		w = len(slab) / len(parts)
	}
	inPlace := true
	for q, part := range parts {
		total += len(part)
		if len(part) > 0 && (&part[0] != &slab[q*w] || total > (q+1)*w) {
			inPlace = false
		}
	}
	if !inPlace {
		out := make([]float64, 0, total)
		for _, part := range parts {
			out = append(out, part...)
		}
		return out
	}
	off := 0
	for q, part := range parts {
		if off != q*w {
			copy(slab[off:], part)
		}
		off += len(part)
	}
	return slab[:off]
}

// chunk returns rank q's even share of data (a view, not a copy).
func chunk(data []float64, p, q int) []float64 {
	return data[q*len(data)/p : (q+1)*len(data)/p]
}

// sortParallel splits data evenly, sorts it on the configured BSP
// machine at oversampling ratio l, and returns the per-rank shares of
// the global order, the slab whose windows are the ranks' run buffers,
// and run statistics. Each rank keeps its data (Keep)
// for the whole sort, so with cfg.Checkpoint armed every eligible
// boundary is a cut: the data streams into the snapshot beside the
// undelivered inbox (sample runs, condensed runs, splitters or routed
// runs, depending on the boundary), and a resumed rank takes its stage
// from the superstep.
func sortParallel(cfg core.Config, data []float64, l int) ([][]float64, []float64, *core.Stats, error) {
	w := runWindow(len(data), cfg.P, l)
	slab := make([]float64, cfg.P*w)
	parts := make([][]float64, cfg.P)
	st, err := core.Run(cfg, func(c *core.Proc) {
		// The machine runs only the sort, so the boundary it resumed at
		// (0 on a scratch start) is the stage.
		s := &state{stage: c.Step(), l: l}
		if c.Step() == 0 {
			s.data = runBuffer(slab, w, c.ID(), chunk(data, cfg.P, c.ID()))
		}
		c.Keep(&s.data)
		parts[c.ID()] = s.run(c)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return parts, slab, st, nil
}

// Parallel splits data evenly, sorts it on the configured BSP machine
// at the oversampling ratio DefaultRatio picks for the SGI profile, and
// returns the concatenated global order plus run statistics. Every
// run is recoverable once cfg.Checkpoint is armed. The result is
// normally the prefix of the slab the ranks sorted in.
func Parallel(cfg core.Config, data []float64) ([]float64, *core.Stats, error) {
	parts, slab, st, err := sortParallel(cfg, data, oversample(len(data), cfg.P))
	if err != nil {
		return nil, nil, err
	}
	return gather(slab, parts), st, nil
}

// ParallelRecoverable is Parallel. Only the benchmark harness in bench/
// still calls it; it goes once bench/ calls Parallel (ROADMAP item 1(d)).
func ParallelRecoverable(cfg core.Config, data []float64) ([]float64, *core.Stats, error) {
	return Parallel(cfg, data)
}
