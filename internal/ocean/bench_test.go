package ocean

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func BenchmarkSmooth(b *testing.B) {
	sol := newSolver(seqMachine{}, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.smooth(0, 1)
	}
	b.ReportMetric(256*256*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkVCycle(b *testing.B) {
	sol := newSolver(seqMachine{}, 256)
	lv := sol.levels[0]
	for r := 1; r <= 256; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= 256; c++ {
			fr[c] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.vcycle(0)
	}
}

func BenchmarkSequentialStep(b *testing.B) {
	for _, size := range []int{66, 130} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Sequential(Config{Size: size, Steps: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelStep runs one timestep at p = 4: on shm, and on tcp
// at size 130, where the per-superstep latency is most of the time. It
// reports the supersteps per timestep beside it.
func BenchmarkParallelStep(b *testing.B) {
	for _, bc := range []struct {
		tr   transport.Transport
		size int
	}{{transport.ShmTransport{}, 66}, {transport.TCPTransport{}, 130}} {
		b.Run(fmt.Sprintf("%s/size=%d", bc.tr.Name(), bc.size), func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				_, st, err := Parallel(core.Config{P: 4, Transport: bc.tr}, Config{Size: bc.size, Steps: 1})
				if err != nil {
					b.Fatal(err)
				}
				s = st.S()
			}
			b.ReportMetric(float64(s), "S/op")
		})
	}
}
