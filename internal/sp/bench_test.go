package sp

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/transport"
)

func BenchmarkParallelSP(b *testing.B) {
	g := graph.Geometric(5000, 1)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ParallelSingle(core.Config{P: p, Transport: transport.ShmTransport{}}, g, 0, DefaultWorkFactor); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMultiSourceScaling(b *testing.B) {
	g := graph.Geometric(2000, 1)
	for _, k := range []int{1, 5, 25} {
		srcs := make([]int32, k)
		for i := range srcs {
			srcs[i] = int32(i * 37 % g.N)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, srcs, DefaultWorkFactor)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.S()), "S")
			b.ReportMetric(float64(st.S())/float64(k), "S/source")
		})
	}
}
