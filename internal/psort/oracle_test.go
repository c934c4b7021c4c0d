package psort

// Oracles for the fast paths: the stable comparison sort, the linear
// routing walk and the heap of run structs that sortLocal's radix sort,
// cutRun's binary search and mergeInto's merge tree replaced. The oracles
// compare float64 values, never floatKey's keys, so a key that folds or
// splits the wrong values shows. Every fast path must reproduce its
// oracle exactly — the sort and the merge bit for bit (a −0/+0 swap or
// two NaN payloads trading places would move tags, samples, splitters and
// H, or change a rank's share), the cuts index for index.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/collect"
)

// lessOracle is the order floatKey encodes, on the values themselves:
// NaNs order before every number (the sort.Float64s convention) and −0
// equals +0.
func lessOracle(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// sortOracle is the comparison sort sortLocal replaced.
func sortOracle(data []float64) {
	sort.SliceStable(data, func(i, j int) bool { return lessOracle(data[i], data[j]) })
}

// lessTagOracle is the tagged order as the walk compared it.
func lessTagOracle(a, b tagged) bool {
	if lessOracle(a.v, b.v) {
		return true
	}
	if lessOracle(b.v, a.v) {
		return false
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.idx < b.idx
}

// cutRunWalk is the linear merge-walk cutRun replaced.
func cutRunWalk(data []float64, rank int32, spl []tagged, p int) []int {
	cuts := make([]int, p+1)
	i := 0
	for q := 1; q < p; q++ {
		if q-1 < len(spl) {
			for i < len(data) && lessTagOracle(tagged{v: data[i], rank: rank, idx: int32(i)}, spl[q-1]) {
				i++
			}
		}
		cuts[q] = i
	}
	cuts[p] = len(data)
	return cuts
}

// mergeRun is one source's routed run in mergeOracle.
type mergeRun struct {
	buf  []byte
	off  int
	head float64
	src  int32
}

// mergeOracle is the merge mergeInto replaced: a binary heap of mergeRun
// structs, each carrying its run's slice, ordered by (lessOracle, source
// rank).
func mergeOracle(msgs [][]byte) []float64 {
	var runs []mergeRun
	total := 0
	for _, msg := range msgs {
		body := msg[sampleHdrLen:]
		if len(body) < elemBytes {
			continue
		}
		runs = append(runs, mergeRun{
			buf:  body,
			off:  elemBytes,
			head: loadFloat(body),
			src:  int32(binary.LittleEndian.Uint32(msg)),
		})
		total += len(body) / elemBytes
	}
	out := make([]float64, 0, total)
	less := func(a, b *mergeRun) bool {
		if lessOracle(a.head, b.head) {
			return true
		}
		if lessOracle(b.head, a.head) {
			return false
		}
		return a.src < b.src
	}
	down := func(h []mergeRun, i int) {
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
		if r.off+elemBytes <= len(r.buf) {
			r.head = loadFloat(r.buf[r.off:])
			r.off += elemBytes
		} else {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		down(runs, 0)
	}
	return out
}

// routedRuns encodes perSrc[s] as source s's routed run — the source
// rank header, then the values in stable oracle order — and hands the
// runs over in a shuffled source order, so only the header can break
// ties.
func routedRuns(perSrc [][]float64, rng *rand.Rand) [][]byte {
	runs := make([][]byte, len(perSrc))
	for src, vs := range perSrc {
		vs = append([]float64(nil), vs...)
		sortOracle(vs)
		runs[src] = appendFloats(binary.LittleEndian.AppendUint32(nil, uint32(src)), vs)
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

// checkMerge asserts mergeInto equals mergeOracle on runs bit for bit:
// with room in both the destination and the scratch — whose arrays it
// must reuse, allocating nothing — with a nil scratch, as on a rank
// resumed past the radix sort, and with neither. countAllocs adds
// testing.AllocsPerRun to the reuse check; the fuzz target leaves it
// out, because each count stops the world and cuts its exec rate
// twentyfold.
func checkMerge(t *testing.T, runs [][]byte, countAllocs bool) {
	t.Helper()
	want := mergeOracle(runs)
	dst := make([]float64, 0, len(want)+1)
	scratch := make([]float64, 0, len(want)+1)
	for _, c := range []struct{ dst, scratch []float64 }{{dst, scratch}, {dst, nil}, {nil, nil}} {
		got := mergeInto(c.dst, c.scratch, runs)
		if len(got) != len(want) {
			t.Fatalf("merged %d elements, oracle has %d", len(got), len(want))
		}
		for i := range want {
			if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
				t.Fatalf("%d runs: element %d is %#016x, oracle has %#016x", len(runs), i, g, w)
			}
		}
	}
	if got := mergeInto(dst, scratch, runs); len(got) > 0 && &got[0] != &dst[:1][0] {
		t.Fatal("merge allocated although the destination had room")
	}
	if !countAllocs {
		return
	}
	if a := testing.AllocsPerRun(2, func() { mergeInto(dst, scratch, runs) }); a != 0 {
		t.Fatalf("merge of %d runs allocated %.0f times with room in the destination and the scratch", len(runs), a)
	}
}

// nan returns the NaN with the given bits.
func nan(bits uint64) float64 { return math.Float64frombits(bits) }

// negZero is −0; the constant -0.0 is +0.
var negZero = math.Copysign(0, -1)

// TestMergeRunsMatchesHeapOracle: the merge tree equals the heap of run
// structs bit for bit on the values whose ties only the source rank can
// break: ±0, NaNs with distinct payloads, ±Inf and subnormals.
func TestMergeRunsMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	repeat := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	pool := []float64{negZero, 0, nan(0x7FF8000000000001), nan(0xFFF8000000000002), nan(0x7FF0000000000003),
		nan(0xFFF0000000000004), -2, -1, 1, 2, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1060}
	cases := []struct {
		name   string
		perSrc [][]float64
	}{
		{"float/signed-zero-nan", [][]float64{
			{negZero, 0, nan(0x7FF8000000000001), 1},
			{0, nan(0xFFF8000000000002), negZero, -1},
			{nan(0x7FF0000000000003), negZero, 0, nan(0x7FF8000000000004)},
			{nan(0xFFF0000000000005), 0, negZero},
		}},
		{"float/all-equal", [][]float64{repeat(50, 5), repeat(50, 5), repeat(50, 5)}},
		{"float/empty-runs", [][]float64{{}, {3, negZero, 2}, {}, {0, 2}, {}}},
		{"float/all-empty", [][]float64{{}, {}, {}}},
		{"float/single-run", [][]float64{{3, negZero, nan(0x7FF8000000000001), 0, 1}}},
	}
	for k := 1; k <= 16; k++ {
		perSrc := make([][]float64, k)
		for s := range perSrc {
			for n := rng.Intn(40); n > 0; n-- {
				perSrc[s] = append(perSrc[s], pool[rng.Intn(len(pool))])
			}
		}
		cases = append(cases, struct {
			name   string
			perSrc [][]float64
		}{fmt.Sprintf("float/k=%d", k), perSrc})
	}
	// Records: a float64 read as a (key, payload) record, the key being
	// floatKey and the payload the bit pattern. The zero key has two
	// payloads and the NaN key four, so drawing from one to three keys
	// (one = all equal) makes every tie between runs visible in the
	// output. Every 4th run is empty.
	keys := [][]float64{
		{negZero, 0},
		{nan(0x7FF8000000000001), nan(0xFFF8000000000002), nan(0x7FF0000000000003), nan(0xFFF0000000000004)},
		{math.Inf(-1)},
	}
	for k := 1; k <= 16; k++ {
		nkeys := 1 + k%3
		perSrc := make([][]float64, k)
		for s := range perSrc {
			if s%4 == 3 {
				continue
			}
			for n := 1 + rng.Intn(40); n > 0; n-- {
				payloads := keys[rng.Intn(nkeys)]
				perSrc[s] = append(perSrc[s], payloads[rng.Intn(len(payloads))])
			}
		}
		cases = append(cases, struct {
			name   string
			perSrc [][]float64
		}{fmt.Sprintf("record/k=%d", k), perSrc})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMerge(t, routedRuns(tc.perSrc, rng), true) })
	}
}

// checkSortLocal asserts sortLocal on a copy of data equals the oracle
// bit for bit.
func checkSortLocal(t *testing.T, data []float64) {
	t.Helper()
	got := append([]float64(nil), data...)
	want := append([]float64(nil), data...)
	sortLocal(got, nil)
	sortOracle(want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: element %d is %#016x (%v), oracle has %#016x (%v)",
				len(data), i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestSortLocalMatchesComparisonSort(t *testing.T) {
	tile := func(n int, vs ...float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = vs[i%len(vs)]
		}
		return out
	}
	ramp := func(n, step int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(step * i)
		}
		return out
	}
	// A large normal run with every special value sprinkled in, so the
	// equivalence classes are exercised through every pass.
	big := RandomData(250_000, 24)
	specials := []float64{
		negZero, 0, nan(0x7FF8000000000001), nan(0xFFF8000000000002), nan(0x7FF0000000000003),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1060,
	}
	for i := 0; i < len(big); i += 97 {
		big[i] = specials[i%len(specials)]
	}
	// Digit boundaries: values of both signs whose keys differ only in
	// the top bit of one 11-bit digit and the bottom bit of the next
	// (bits 10/11, 21/22, 32/33, 43/44, 54/55) or in the key's bit 0, in
	// every combination and shuffled, each twice so stability shows.
	var boundary []float64
	edges := []int{0, 10, 11, 21, 22, 32, 33, 43, 44, 54, 55}
	for _, base := range []uint64{math.Float64bits(1.5), math.Float64bits(-1.5)} {
		for mask := 0; mask < 1<<len(edges); mask++ {
			bits := base
			for j, e := range edges {
				bits ^= uint64(mask>>j&1) << e
			}
			boundary = append(boundary, math.Float64frombits(bits), math.Float64frombits(bits))
		}
	}
	rand.New(rand.NewSource(11)).Shuffle(len(boundary), func(i, j int) {
		boundary[i], boundary[j] = boundary[j], boundary[i]
	})
	cases := map[string][]float64{
		"len0":        {},
		"len1":        {negZero},
		"len2":        {0, negZero},
		"len2-nan":    {nan(0xFFF8000000000009), nan(0x7FF8000000000001)},
		"signed-zero": tile(1000, negZero, 0, negZero, negZero, 0),
		"nan-payloads": tile(600, nan(0x7FF8000000000001), 1, nan(0xFFF8000000000002), -1,
			nan(0x7FF0000000000003), nan(0xFFF0000000000004)),
		"inf":            tile(300, math.Inf(1), 2, math.Inf(-1), -2, math.Inf(1)),
		"subnormal":      tile(500, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1050, negZero, 0),
		"all-equal":      tile(4096, 5),
		"presorted":      ramp(4096, 1),
		"reverse":        ramp(4096, -1),
		"zipf":           ZipfData(50_000, 3),
		"uniform":        RandomData(250_000, 7),
		"specials":       big,
		"mixed-tiny":     {3, negZero, nan(0x7FF8000000000005), -1, 0, math.Inf(-1), nan(0xFFF8000000000006), 3},
		"digit-boundary": boundary,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkSortLocal(t, data) })
	}
}

// sampleRuns builds each rank's tagged sample run as superstep 1 does:
// the rank's sorted even share, read at the k = min(2ℓp, n) positions
// j·n/k.
func sampleRuns(data []float64, p, l int) [][]tagged {
	runs := make([][]tagged, p)
	for q := range runs {
		local := append([]float64(nil), chunk(data, p, q)...)
		sortLocal(local, nil)
		k := min(sampleCount(l, p), len(local))
		for j := range k {
			i := j * len(local) / k
			runs[q] = append(runs[q], tagged{v: local[i], rank: int32(q), idx: int32(i)})
		}
	}
	return runs
}

// checkSampleMerge asserts mergeTagged on runs, handed over in a
// shuffled order, equals the sort it replaced on the same samples bit
// for bit, and returns the merge.
func checkSampleMerge(t *testing.T, runs [][]tagged, rng *rand.Rand) []tagged {
	t.Helper()
	runs = slices.Clone(runs)
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	var ts []tagged
	var ends []int
	for _, r := range runs {
		ts = append(ts, r...)
		ends = append(ends, len(ts))
	}
	want := slices.Clone(ts)
	slices.SortFunc(want, cmpTag)
	got := mergeTagged(ts, ends)
	if !slices.EqualFunc(got, want, func(a, b tagged) bool {
		return math.Float64bits(a.v) == math.Float64bits(b.v) && a.rank == b.rank && a.idx == b.idx
	}) {
		t.Fatalf("merge of %d sample runs differs from the sort", len(runs))
	}
	return got
}

// TestSampleMergeMatchesSort: the leaders' and the root's merges of
// sample runs equal slices.SortFunc(cmpTag) over the same samples, on
// the inputs whose keys collide — Zipf, all
// equal, ±0 and NaN payloads — so only the (rank, idx) tags decide, and
// with an empty run and a single run.
func TestSampleMergeMatchesSort(t *testing.T) {
	const n = 3000
	mixed := make([]float64, n)
	specials := []float64{negZero, 0, nan(0x7FF8000000000001), nan(0xFFF8000000000002), -1, 1, nan(0x7FF0000000000003)}
	for i := range mixed {
		mixed[i] = specials[(i*7+i/5)%len(specials)]
	}
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = 5
	}
	inputs := []struct {
		name string
		data []float64
	}{
		{"random", RandomData(n, 3)}, {"zipf", ZipfData(n, 3)}, {"all-equal", equal}, {"zero-nan", mixed},
	}
	rng := rand.New(rand.NewSource(40))
	for _, in := range inputs {
		for _, p := range []int{2, 3, 4, 5, 9, 16} {
			t.Run(fmt.Sprintf("%s/p=%d", in.name, p), func(t *testing.T) {
				runs := sampleRuns(in.data, p, oversample(n, p))
				fanout := collect.GroupFanout(p)
				var forwarded [][]tagged
				for leader := 0; leader < p; leader += fanout {
					forwarded = append(forwarded, checkSampleMerge(t, runs[leader:min(leader+fanout, p)], rng))
				}
				checkSampleMerge(t, forwarded, rng)
				checkSampleMerge(t, append(forwarded, nil), rng)
				checkSampleMerge(t, runs[:1], rng)
			})
		}
	}
}
