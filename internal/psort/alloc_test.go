package psort

// Sort-specific allocation gates. The routed runs are appended straight
// into the transport's pooled per-pair batches and the final k-way merge
// reads the inbox's frame views in place and writes into the rank's own
// run buffer, so the sort's allocation count must be (near-)independent
// of n: a handful of buffers per rank per stage, never one allocation
// per element or per message. TestSortAllocBound pins an absolute count
// at a fixed size and — the stronger property — requires the count to
// stay flat as n quadruples; TestSortBytesPerElement bounds the bytes,
// which is where a reintroduced n-sized buffer shows.

import (
	"runtime"
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
	opt := Resolve(Options{}, n, sortAllocP, 8)
	cfg := core.Config{P: sortAllocP, Transport: transport.ShmTransport{}}
	run := func() {
		if _, _, err := SortParallel(cfg, Float64Codec{}, data, opt); err != nil {
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
// Four 8-byte-per-element buffers remain — the ranks' run buffers, the
// radix sort's scratch runs, the shm batches and Parallel's
// concatenation — plus a few per cent of overhead; one more n-sized
// buffer, such as a separate merge output (44.6 measured), exceeds it.
const sortBytesMax = 40

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
