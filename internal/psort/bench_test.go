package psort

// Gated sort benchmarks (BENCH_sort.json, `make bench-gate`): the
// whole-machine p=4 shm sample sort on a uniform and on a Zipf-skewed
// key distribution. ns/op is per full 4-superstep sort of benchSortN
// elements; allocs/op is whole-machine and must stay flat (see
// alloc_test.go — the routed runs land in pooled per-pair batches and
// the merge reads zero-copy inbox views). The zipfian benchmark is also
// a property gate: every measured run must respect the deterministic
// (1+1/ℓ)·n/p imbalance bound, so a splitter-quality regression fails
// the benchmark itself, not just a separate test.
//
// BenchmarkSortLocal and BenchmarkMergeRuns time one hot path each, one
// rank's worth, so a change to one of them comes with a number of its
// own: the local radix sort of 2^18 normals and the merge tree over 2^20
// elements in 4 and in 16 routed runs.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

const (
	benchSortN = 16384
	benchSortP = 4
)

func benchSort(b *testing.B, data []float64, gateBound bool) {
	b.Helper()
	l := oversample(len(data), benchSortP)
	cfg := core.Config{P: benchSortP, Transport: transport.ShmTransport{}}
	bound := ImbalanceBound(len(data), benchSortP, l)
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts, _, _, err := sortParallel(cfg, data, l)
		if err != nil {
			b.Fatal(err)
		}
		if gateBound {
			for q, part := range parts {
				if len(part) > bound {
					b.Fatalf("rank %d holds %d elements, imbalance bound (n=%d p=%d l=%d) is %d",
						q, len(part), len(data), benchSortP, l, bound)
				}
			}
		}
	}
}

func BenchmarkSampleSortUniform(b *testing.B) {
	benchSort(b, RandomData(benchSortN, 1996), false)
}

func BenchmarkSampleSortZipfian(b *testing.B) {
	benchSort(b, ZipfData(benchSortN, 1996), true)
}

// benchPieceN is the per-run size of the hot-path benchmarks.
const benchPieceN = 1 << 18

// benchFloats sinks the hot-path benchmarks' results, so the calls stay.
var benchFloats []float64

func BenchmarkSortLocal(b *testing.B) {
	data := RandomData(benchPieceN, 1996)
	work, scratch := make([]float64, len(data)), make([]float64, len(data))
	b.SetBytes(8 * benchPieceN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, data)
		sortLocal(work, scratch)
	}
	benchFloats = work
}

// BenchmarkMergeRuns merges 4·2^18 elements split into k routed runs: k = 4
// is two levels of the merge tree, k = 16 four.
func BenchmarkMergeRuns(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const total = 4 * benchPieceN
			runs := make([][]byte, k)
			for s := range runs {
				vs := RandomData(total/k, int64(s))
				sort.Float64s(vs)
				runs[s] = appendFloats(binary.LittleEndian.AppendUint32(nil, uint32(s)), vs)
			}
			dst, scratch := make([]float64, 0, total), make([]float64, 0, total)
			b.SetBytes(8 * total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFloats = mergeInto(dst, scratch, runs)
			}
		})
	}
}
