package psort

// Sort-specific allocation gates. The routed runs are appended straight
// into the transport's pooled per-pair batches, the final k-way merge
// reads the inbox's frame views in place and writes into the rank's own
// run buffer, and the run buffers are windows of one slab whose prefix
// becomes Parallel's result, so the sort's allocation count must be
// (near-)independent of n: a handful of buffers per rank per stage, never one allocation
// per element or per message. TestSortAllocBound pins an absolute count
// at a fixed size and — the stronger property — requires the count to
// stay flat as n quadruples; TestSortBytesPerElement bounds the bytes,
// which is where a reintroduced n-sized buffer shows.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

const (
	sortAllocP = 4
	// sortAllocMax bounds a whole p=4 shm sort of 8192 float64s: machine
	// startup + 4 ranks × 4 stages of bounded scratch buffers measured
	// ~200 allocs; the gate leaves headroom for runtime noise while
	// staying orders of magnitude below one-alloc-per-element (8192) or
	// one-per-packet (~4096).
	sortAllocMax = 600
	// sortAllocGrowth caps allocs(4n)/allocs(n): a per-element or
	// per-packet allocation path would push this toward 4.
	sortAllocGrowth = 1.5
)

func measureSortAllocs(t *testing.T, n int) float64 {
	t.Helper()
	data := RandomData(n, 7)
	l := oversample(n, sortAllocP)
	cfg := core.Config{P: sortAllocP, Transport: transport.ShmTransport{}}
	run := func() {
		if _, _, _, err := sortParallel(cfg, data, l); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the transport pools before measuring
	return testing.AllocsPerRun(10, run)
}

func TestSortAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	small := measureSortAllocs(t, 2048)
	large := measureSortAllocs(t, 8192)
	t.Logf("allocs per whole-machine sort (p=%d): n=2048: %.1f, n=8192: %.1f", sortAllocP, small, large)
	if large > sortAllocMax {
		t.Errorf("sort alloc gate: %.1f allocs at n=8192, want <= %d", large, sortAllocMax)
	}
	if large > small*sortAllocGrowth {
		t.Errorf("sort allocations grow with n: %.1f -> %.1f for 4x the elements (cap %.1fx) — a per-element or per-message allocation crept into the sort path",
			small, large, sortAllocGrowth)
	}
}

// sortBytesMax bounds the bytes one Parallel call allocates per element.
// Three 8-byte-per-element buffers remain — the slab (the ranks' run
// buffers, whose prefix Parallel returns), the ranks' scratch runs (the
// radix sort's ping-pong buffer, kept for the merge tree's levels) and
// the shm batches — plus a few per cent of overhead (27.7 measured); one
// more n-sized buffer, such as Parallel concatenating the shares into a
// fresh array (35.3 measured), exceeds it.
const sortBytesMax = 32

func TestSortBytesPerElement(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	const n = 1 << 18
	data := RandomData(n, 7)
	cfg := core.Config{P: sortAllocP, Transport: transport.ShmTransport{}}
	run := func() {
		if _, _, err := Parallel(cfg, data); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the transport pools before measuring
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perElem := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("bytes allocated per element by one Parallel call (n=%d, p=%d, shm): %.1f", n, sortAllocP, perElem)
	if perElem > sortBytesMax {
		t.Errorf("sort bytes gate: %.1f B per element, want <= %d — an n-sized buffer crept into the sort path", perElem, sortBytesMax)
	}
}

// TestMergeAllocFree: with room in the destination and the scratch, the
// merge tree allocates nothing at any run count — one run, one level,
// an odd run carried, and four levels — and returns the destination's
// array.
func TestMergeAllocFree(t *testing.T) {
	const perRun = 4096
	for _, k := range []int{1, 2, 3, 4, 5, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			runs := make([][]byte, k)
			for s := range runs {
				vs := RandomData(perRun, int64(s))
				sort.Float64s(vs)
				runs[s] = appendFloats(binary.LittleEndian.AppendUint32(nil, uint32(s)), vs)
			}
			dst, scratch := make([]float64, 0, k*perRun), make([]float64, 0, k*perRun)
			var got []float64
			if a := testing.AllocsPerRun(10, func() { got = mergeInto(dst, scratch, runs) }); a != 0 {
				t.Errorf("merge of %d runs: %.1f allocs, want 0", k, a)
			}
			if len(got) != k*perRun || &got[0] != &dst[:1][0] {
				t.Errorf("merge of %d runs did not land in the destination's array", k)
			}
		})
	}
}
