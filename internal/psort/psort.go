// Package psort implements BSP parallel sorting by oversampling-based
// sample sort — the kind of "fairly simple subroutine (i.e., broadcast
// or sorting)" for which §4 of the paper says the BSP cost model's
// curve-fitting works best. It is an extension experiment (DESIGN.md
// E1) with a fully predictable cost shape, following the oversampling
// design of Gerbessiotis & Siniolakis (PAPERS.md):
//
//	superstep 1: local sort, m = 2ℓp tagged samples to group leader
//	             (h ≤ ⌈√p⌉·m sample tuples at any leader)
//	superstep 2: ⌈p/⌈√p⌉⌉ leaders merge their group's runs and forward
//	             them to rank 0 (⌈√p⌉-bounded message fan-in at every
//	             rank — not the old p-message funnel)
//	superstep 3: rank 0 selects p−1 tagged splitters, broadcasts
//	             (h = p·(p−1) tuples)
//	superstep 4: all-to-all redistribution of the sorted runs
//	             (h ≤ (1+1/ℓ)·n/p elements per process)
//
// so S = 4, H is dominated by the n/p-element data exchange, and the
// oversampling ratio ℓ bounds any rank's final share at
// (1+1/ℓ)·n/p plus a small discretization term (ImbalanceBound) — even
// on all-equal or adversarially duplicated inputs, because samples and
// splitters carry (rank, index) origin tags that make every key
// distinct in the tagged order.
//
// The receive path never re-sorts: each routed run arrives sorted, and
// a k-way merge over the inbox's zero-copy frame views produces the
// final share directly.
package psort

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/cost"
)

// Mode selects the sampling strategy.
type Mode int

const (
	// ModeRegular takes m evenly spaced samples from each sorted local
	// run — fully deterministic, the PSRS/regular-sampling choice.
	ModeRegular Mode = iota
	// ModeRandom draws m positions uniformly at random (seeded per
	// rank, so recovery replays identically) — the randomized
	// oversampling variant of Gerbessiotis & Siniolakis.
	ModeRandom
)

// Options tune one sort run.
type Options struct {
	// Mode selects regular or randomized sampling.
	Mode Mode
	// Oversample is the oversampling ratio ℓ; each rank ships m = 2ℓp
	// samples. 0 selects DefaultRatio from Params.
	Oversample int
	// Params is the machine profile used to choose ℓ when Oversample
	// is 0; nil uses the SGI profile at the run's p.
	Params *cost.Params
	// Seed drives ModeRandom's per-rank sample positions.
	Seed int64
}

// Resolve fills in the derived fields of opt for a sort of n elements
// of elemBytes each over p ranks: the effective oversampling ratio ℓ.
// SortParallel applies it once globally so every rank samples at the
// same density; callers that need the effective ℓ (to evaluate
// ImbalanceBound) apply it themselves.
func Resolve(opt Options, n, p, elemBytes int) Options {
	if opt.Oversample <= 0 {
		pm := opt.Params
		if pm == nil {
			v := cost.SGI.Params(p)
			pm = &v
		}
		opt.Oversample = DefaultRatio(*pm, n, p, elemBytes)
	}
	return opt
}

// tagged is an element with its origin coordinates. The lexicographic
// order (element, rank, index) is a strict total order even when
// element keys collide, which is what keeps splitter selection and
// routing well-defined on duplicate-heavy inputs.
type tagged[T any] struct {
	v    T
	rank int32
	idx  int32
}

// cmpTag compares in the tagged total order.
func cmpTag[T any](cd Codec[T], a, b tagged[T]) int {
	if c := cmpLess(cd, a.v, b.v); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// state is the whole per-rank state of the sample sort between any two
// supersteps: which boundary the rank has crossed, the resolved
// options, and its data. Everything else a stage needs (sample runs,
// condensed runs, splitters, routed elements) arrives in the inbox of
// the superstep that starts the stage, so a (stage, options, data)
// triple plus the undelivered inbox — exactly what a checkpoint
// captures — restarts the sort from any boundary.
type state[T any] struct {
	// stage is the number of superstep boundaries crossed: 0 = nothing
	// sent yet; 1 = sample runs sent (group leaders' inboxes hold
	// them); 2 = merged runs forwarded (rank 0's inbox holds them); 3 =
	// splitters broadcast (every inbox holds them); 4 = data routed
	// (every inbox holds this rank's final run set).
	stage int
	opt   Options
	data  []T
}

// sampleHdrLen prefixes each sample run and each routed run with the
// origin rank (uint32 LE).
const sampleHdrLen = 4

// tagLen is the encoded size of a (rank, idx) tag.
const tagLen = 8

// sampleCount is m, the per-rank sample count for ratio l on p ranks.
// The factor 2 over the nominal ℓ·p pays for the boundary slack of the
// partition bound — the p sample gaps straddling a bucket's edges add
// n/m elements on top of the n/p interior term — and absorbs
// ModeRandom's worst-case gap of two stratum widths, keeping the
// end-to-end bound at (1+1/ℓ)·n/p in both modes (see ImbalanceBound).
func sampleCount(l, p int) int {
	return 2 * l * p
}

// run executes the sort from the state's current stage. The stage
// counter is advanced *before* each Sync so that the Save hook — which
// fires inside Sync, after the barrier — captures the post-boundary
// position.
func (s *state[T]) run(c *core.Proc, cd Codec[T]) []T {
	p := c.P()
	me := int32(c.ID())
	esz := cd.Size()
	fanout := collect.GroupFanout(p)
	m := sampleCount(s.opt.Oversample, p)
	switch s.stage {
	case 0:
		// Superstep 1: local sort; ship the tagged sample run to this
		// rank's group leader (leaders ship to themselves — samples
		// must ride the transport, not rank-local memory, so that the
		// (stage, data, inbox) snapshot stays the complete state).
		sortLocal(cd, s.data)
		c.AddWork(nLogN(len(s.data)))
		if p > 1 {
			pos := samplePositions(len(s.data), m, s.opt, c.ID())
			buf := make([]byte, 0, sampleHdrLen+len(pos)*(esz+4))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(me))
			for _, i := range pos {
				buf = cd.Append(buf, s.data[i])
				buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			}
			c.Send(collect.GroupLeader(c.ID(), fanout), buf)
		}
		s.stage = 1
		c.Sync()
		fallthrough
	case 1:
		// Superstep 2: group leaders merge their members' sample runs
		// (no information is dropped — condensing at the leaders would
		// compress different groups at different ratios, skewing the
		// per-rank sample densities the selection bound depends on)
		// and forward one pre-merged tagged run to rank 0. Rank 0 thus
		// absorbs ⌈p/⌈√p⌉⌉ messages instead of p — every rank's
		// per-superstep message fan-in is bounded by ⌈√p⌉, which is
		// what removes the old rank-0 funnel; the sample *volume* at
		// the root is the price of the deterministic imbalance bound
		// and cannot be condensed away.
		if p > 1 && c.ID() == collect.GroupLeader(c.ID(), fanout) {
			all := s.recvTagged(c, cd, true)
			sortTagged(cd, all)
			c.AddWork(nLogN(len(all)))
			buf := make([]byte, 0, len(all)*(esz+tagLen))
			for _, t := range all {
				buf = cd.Append(buf, t.v)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(t.rank))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(t.idx))
			}
			c.Send(0, buf)
		}
		s.stage = 2
		c.Sync()
		fallthrough
	case 2:
		// Superstep 3: rank 0 merges the forwarded sample runs, selects
		// p−1 tagged splitters at regular positions and broadcasts them.
		// The broadcast is p·(p−1) tiny tuples — the small term of the
		// cost shape; the sample volume never concentrates on one rank.
		if p > 1 && c.ID() == 0 {
			u := s.recvTagged(c, cd, false)
			sortTagged(cd, u)
			c.AddWork(nLogN(len(u)))
			buf := make([]byte, 0, 4+(p-1)*(esz+tagLen))
			nspl := 0
			if len(u) > 0 {
				nspl = p - 1
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nspl))
			for j := 1; j <= nspl; j++ {
				t := u[j*len(u)/p]
				buf = cd.Append(buf, t.v)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(t.rank))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(t.idx))
			}
			for q := 0; q < p; q++ {
				c.Send(q, buf)
			}
		}
		s.stage = 3
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
			spl := decodeSplitters(cd, msg)
			cuts := cutRun(cd, s.data, me, spl, p)
			maxPiece := 0
			for q := 0; q < p; q++ {
				if n := cuts[q+1] - cuts[q]; n > maxPiece {
					maxPiece = n
				}
			}
			scratch := make([]byte, 0, sampleHdrLen+maxPiece*esz)
			for q := 0; q < p; q++ {
				piece := s.data[cuts[q]:cuts[q+1]]
				if len(piece) == 0 {
					continue
				}
				scratch = scratch[:0]
				scratch = binary.LittleEndian.AppendUint32(scratch, uint32(me))
				for _, v := range piece {
					scratch = cd.Append(scratch, v)
				}
				c.Send(q, scratch)
			}
			c.AddWork(len(s.data))
			// The routed elements now live in the exchange; they come
			// back through the inbox, so the local copy is no longer
			// part of the restartable state.
			s.data = nil
		}
		s.stage = 4
		c.Sync()
		fallthrough
	default:
		// Final (non-communicating) stage: k-way merge of the routed
		// runs. Each run is already sorted and the inbox frames are
		// zero-copy views, so this is the only pass over the data.
		if p == 1 {
			return s.data
		}
		return mergeRuns(c, cd)
	}
}

// radixSorter is implemented by codecs with a stable radix sort whose
// output is bit-identical to a stable sort by their Less.
type radixSorter[T any] interface {
	sortStable(data, tmp []T)
}

// sortLocal sorts data in the codec's order. Ties keep input order
// (stable), which matches the tagged order because local indices are
// assigned after the sort. A codec that can radix sort does so; any
// other falls back to a stable comparison sort on Less.
func sortLocal[T any](cd Codec[T], data []T) {
	if rs, ok := cd.(radixSorter[T]); ok {
		rs.sortStable(data, make([]T, len(data)))
		return
	}
	slices.SortStableFunc(data, func(a, b T) int { return cmpLess(cd, a, b) })
}

// cmpLess is the three-way comparison induced by the codec's Less.
func cmpLess[T any](cd Codec[T], a, b T) int {
	if cd.Less(a, b) {
		return -1
	}
	if cd.Less(b, a) {
		return 1
	}
	return 0
}

// sortTagged sorts tagged samples in the tagged total order.
func sortTagged[T any](cd Codec[T], ts []tagged[T]) {
	slices.SortFunc(ts, func(a, b tagged[T]) int { return cmpTag(cd, a, b) })
}

// samplePositions returns the sorted local indices to sample: evenly
// spaced (ModeRegular), or one uniform draw per stratum at twice the
// density (ModeRandom, seeded by (Seed, rank) so a recovery
// re-execution draws the same positions). Stratified jittering rather
// than sampling with replacement keeps the maximum gap between
// consecutive samples within twice the regular spacing, and the
// doubled density cancels that factor — so the deterministic
// ImbalanceBound survives the randomized mode (draws with replacement
// would only give it in expectation, and duplicate positions would
// collapse tagged splitters).
func samplePositions(n, m int, opt Options, rank int) []int {
	if n == 0 {
		return nil
	}
	if opt.Mode == ModeRandom {
		k := min(2*m, n)
		pos := make([]int, k)
		rng := rand.New(rand.NewSource(opt.Seed*0x9E3779B9 + int64(rank) + 1))
		for i := range pos {
			lo, hi := i*n/k, (i+1)*n/k
			pos[i] = lo + rng.Intn(hi-lo)
		}
		return pos
	}
	k := min(m, n)
	pos := make([]int, k)
	for i := range pos {
		pos[i] = i * n / k
	}
	return pos
}

// recvTagged drains the inbox into tagged samples. Sample runs
// (withHdr) carry one origin-rank header and per-sample indices;
// leader-forwarded runs carry full (rank, idx) tags per sample.
func (s *state[T]) recvTagged(c *core.Proc, cd Codec[T], withHdr bool) []tagged[T] {
	esz := cd.Size()
	var out []tagged[T]
	for {
		msg, ok := c.Recv()
		if !ok {
			return out
		}
		if withHdr {
			src := int32(binary.LittleEndian.Uint32(msg))
			body := msg[sampleHdrLen:]
			for len(body) >= esz+4 {
				v := cd.Decode(body)
				idx := int32(binary.LittleEndian.Uint32(body[esz:]))
				out = append(out, tagged[T]{v: v, rank: src, idx: idx})
				body = body[esz+4:]
			}
			continue
		}
		for len(msg) >= esz+tagLen {
			v := cd.Decode(msg)
			rank := int32(binary.LittleEndian.Uint32(msg[esz:]))
			idx := int32(binary.LittleEndian.Uint32(msg[esz+4:]))
			out = append(out, tagged[T]{v: v, rank: rank, idx: idx})
			msg = msg[esz+tagLen:]
		}
	}
}

// decodeSplitters parses a splitter broadcast: [u32 count] then count
// (element, rank, idx) triples in tagged order.
func decodeSplitters[T any](cd Codec[T], msg []byte) []tagged[T] {
	esz := cd.Size()
	n := int(binary.LittleEndian.Uint32(msg))
	msg = msg[4:]
	out := make([]tagged[T], 0, n)
	for i := 0; i < n; i++ {
		v := cd.Decode(msg)
		rank := int32(binary.LittleEndian.Uint32(msg[esz:]))
		idx := int32(binary.LittleEndian.Uint32(msg[esz+4:]))
		out = append(out, tagged[T]{v: v, rank: rank, idx: idx})
		msg = msg[esz+tagLen:]
	}
	return out
}

// cutRun returns the p+1 cut positions of the sorted local run against
// the tagged splitters: bucket q is data[cuts[q]:cuts[q+1]], the
// elements e with spl[q−1] ≤ e < spl[q] in the tagged order. The run
// is sorted in the tagged order, so "element j sorts before the
// splitter" is monotone in j and each cut is a binary search, started
// from the previous cut so the cuts stay monotone; duplicate splitters
// simply yield empty middle buckets, and every element lands in exactly
// one bucket (routing totality).
func cutRun[T any](cd Codec[T], data []T, rank int32, spl []tagged[T], p int) []int {
	cuts := make([]int, p+1)
	i := 0
	for q := 1; q < p; q++ {
		if q-1 < len(spl) {
			lo := i
			i = lo + sort.Search(len(data)-lo, func(j int) bool {
				return cmpTag(cd, tagged[T]{v: data[lo+j], rank: rank, idx: int32(lo + j)}, spl[q-1]) >= 0
			})
		}
		cuts[q] = i
	}
	cuts[p] = len(data)
	return cuts
}

// mergeRun is one source's routed run during the final k-way merge.
type mergeRun[T any] struct {
	buf  []byte
	off  int
	head T
	src  int32
}

// mergeRuns drains the inbox's routed runs and k-way merges them with
// a binary heap ordered by (element, source rank) — a strict total
// order, because each source contributes at most one run, so the
// output is identical whatever order the transport delivered the
// batches in. The frame views are consumed in place (zero-copy); only
// the final share is allocated, sized by a header-only pre-pass.
func mergeRuns[T any](c *core.Proc, cd Codec[T]) []T {
	esz := cd.Size()
	var runs []mergeRun[T]
	total := 0
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		body := msg[sampleHdrLen:]
		if len(body) < esz {
			continue
		}
		runs = append(runs, mergeRun[T]{
			buf:  body,
			off:  esz,
			head: cd.Decode(body),
			src:  int32(binary.LittleEndian.Uint32(msg)),
		})
		total += len(body) / esz
	}
	out := make([]T, 0, total)
	less := func(a, b *mergeRun[T]) bool {
		if cd.Less(a.head, b.head) {
			return true
		}
		if cd.Less(b.head, a.head) {
			return false
		}
		return a.src < b.src
	}
	var down func(h []mergeRun[T], i int)
	down = func(h []mergeRun[T], i int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && less(&h[l], &h[s]) {
				s = l
			}
			if r < len(h) && less(&h[r], &h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		down(runs, i)
	}
	for len(runs) > 0 {
		r := &runs[0]
		out = append(out, r.head)
		if r.off+esz <= len(r.buf) {
			r.head = cd.Decode(r.buf[r.off:])
			r.off += esz
			down(runs, 0)
		} else {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
			down(runs, 0)
		}
	}
	c.AddWork(nLogN(total))
	return out
}

// encode appends the serialized state to b for the checkpoint Save
// hook, growing b at most once.
func (s *state[T]) encode(cd Codec[T], b []byte) []byte {
	b = slices.Grow(b, 40+cd.Size()*len(s.data))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.stage))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.opt.Mode))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.opt.Oversample))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.opt.Seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.data)))
	for _, v := range s.data {
		b = cd.Append(b, v)
	}
	return b
}

// decodeState is the Restore-side inverse of encode.
func decodeState[T any](cd Codec[T], b []byte) (*state[T], error) {
	if len(b) < 40 {
		return nil, fmt.Errorf("psort: snapshot state truncated: %d bytes", len(b))
	}
	s := &state[T]{
		stage: int(binary.LittleEndian.Uint64(b)),
		opt: Options{
			Mode:       Mode(binary.LittleEndian.Uint64(b[8:])),
			Oversample: int(binary.LittleEndian.Uint64(b[16:])),
			Seed:       int64(binary.LittleEndian.Uint64(b[24:])),
		},
	}
	n := int(binary.LittleEndian.Uint64(b[32:]))
	b = b[40:]
	if n < 0 || len(b) != n*cd.Size() {
		return nil, fmt.Errorf("psort: snapshot state inconsistent: %d values, %d bytes left", n, len(b))
	}
	s.data = make([]T, n)
	for i := range s.data {
		s.data[i] = cd.Decode(b[i*cd.Size():])
	}
	return s, nil
}

// nLogN is the comparison-count work unit of a local sort or merge.
func nLogN(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return n * max(lg, 1)
}

// Sort sorts this process's share inside an already-running BSP
// machine and returns its slice of the global order (process i's slice
// precedes process i+1's). It costs exactly 4 supersteps on every
// rank.
func Sort[T any](c *core.Proc, cd Codec[T], local []T, opt Options) []T {
	opt = Resolve(opt, len(local)*c.P(), c.P(), cd.Size())
	s := &state[T]{opt: opt, data: append([]T(nil), local...)}
	return s.run(c, cd)
}

// Run sorts this process's float64 share with default options.
func Run(c *core.Proc, local []float64) []float64 {
	return Sort(c, Float64Codec{}, local, Options{})
}

// chunk returns rank q's even share of data (a view, not a copy).
func chunk[T any](data []T, p, q int) []T {
	n := len(data)
	return data[q*n/p : (q+1)*n/p]
}

// SortParallel splits data evenly, sorts it on the configured BSP
// machine, and returns the per-rank shares of the global order plus
// run statistics. The options are resolved once against the global
// size, so every rank uses the same effective ℓ. With cfg.Checkpoint
// armed, each rank's Save hook serializes its (stage, options, data)
// state, Restore rebuilds it, and the undelivered inbox (sample runs,
// condensed runs, splitters or routed runs, depending on the boundary)
// rides in the snapshot itself.
func SortParallel[T any](cfg core.Config, cd Codec[T], data []T, opt Options) ([][]T, *core.Stats, error) {
	opt = Resolve(opt, len(data), cfg.P, cd.Size())
	// states[q] is owned by rank q's goroutine: written by its Restore
	// hook or at fn entry, read by its Save hook (inside its own Sync).
	states := make([]*state[T], cfg.P)
	parts := make([][]T, cfg.P)
	hooks := core.Hooks{
		Save: func(c *core.Proc, buf []byte) ([]byte, bool) {
			return states[c.ID()].encode(cd, buf), true
		},
		Restore: func(c *core.Proc, step int, snap []byte) error {
			s, err := decodeState(cd, snap)
			if err != nil {
				return err
			}
			states[c.ID()] = s
			return nil
		},
	}
	st, err := core.RunRecoverable(cfg, func(c *core.Proc) {
		if c.Step() == 0 {
			// Scratch start (first attempt, or a retry with no usable
			// snapshot): fresh state from the input chunk.
			states[c.ID()] = &state[T]{opt: opt, data: append([]T(nil), chunk(data, cfg.P, c.ID())...)}
		}
		parts[c.ID()] = states[c.ID()].run(c, cd)
	}, hooks)
	if err != nil {
		return nil, nil, err
	}
	return parts, st, nil
}

// Parallel splits data evenly, sorts it on the configured BSP machine,
// and returns the concatenated global order plus run statistics.
func Parallel(cfg core.Config, data []float64) ([]float64, *core.Stats, error) {
	parts, st, err := SortParallel(cfg, Float64Codec{}, data, Options{})
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, 0, len(data))
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, st, nil
}

// ParallelRecoverable is Parallel: every run is recoverable once
// cfg.Checkpoint is armed. The name stays for the callers (bench/, the
// recovery suites) that spell out that they checkpoint.
func ParallelRecoverable(cfg core.Config, data []float64) ([]float64, *core.Stats, error) {
	return Parallel(cfg, data)
}
