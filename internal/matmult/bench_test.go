package matmult

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func BenchmarkKernelBlocked(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := RandomMatrix(n, 1)
			bm := RandomMatrix(n, 2)
			c := make([]float64, n*n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MultiplyAdd(c, a, bm, n)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkKernelNaive(b *testing.B) {
	const n = 128
	a := RandomMatrix(n, 1)
	bm := RandomMatrix(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive(a, bm, n)
	}
}

func BenchmarkPackBlock(b *testing.B) {
	blk := RandomMatrix(64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packBlock(blk, 64)
	}
}

func BenchmarkUnpackBlock(b *testing.B) {
	msg := packBlock(RandomMatrix(64, 3), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unpackBlock(msg, 64)
	}
}

func BenchmarkCannonEndToEnd(b *testing.B) {
	const n, p = 96, 4
	a := RandomMatrix(n, 1)
	bm := RandomMatrix(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, a, bm, n); err != nil {
			b.Fatal(err)
		}
	}
}
