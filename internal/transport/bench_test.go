package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// benchSupersteps drives p endpoints through b.N empty supersteps and
// reports the per-superstep latency (the transport's L). Errors —
// including Close failures — are collected per goroutine and reported
// only after wg.Wait: testing.B forbids Error/Fatal from goroutines
// that may outlive the benchmark function.
func benchSupersteps(b *testing.B, tr Transport, p int) {
	b.Helper()
	eps, err := tr.Open(p)
	if err != nil {
		b.Fatal(err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := eps[i]
			ep.Begin()
			for n := 0; n < b.N; n++ {
				if _, err := ep.Sync(); err != nil {
					errs[i] = errors.Join(err, ep.Close())
					return
				}
			}
			errs[i] = ep.Close()
		}()
	}
	wg.Wait()
	b.StopTimer()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("proc %d: %v", i, err)
		}
	}
}

// BenchmarkClusterExchange measures a p=4 total exchange per op on the
// in-process cluster transport: real loopback sockets, per-peer
// handshakes and the coordinator control plane all stand up in setup,
// so the op cost is the staged exchange itself. Gated in cmd/benchgate
// against BENCH_cluster.json.
func BenchmarkClusterExchange(b *testing.B) {
	const p, batch = 4, 64
	msg := make([]byte, 16)
	eps, err := ClusterTransport{}.Open(p)
	if err != nil {
		b.Fatal(err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := eps[i]
			ep.Begin()
			for n := 0; n < b.N; n++ {
				for dst := 0; dst < p; dst++ {
					for k := 0; k < batch; k++ {
						ep.Send(dst, msg)
					}
				}
				if _, err := ep.Sync(); err != nil {
					errs[i] = errors.Join(err, ep.Close())
					return
				}
			}
			errs[i] = ep.Close()
		}()
	}
	wg.Wait()
	b.StopTimer()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("proc %d: %v", i, err)
		}
	}
	b.SetBytes(int64(p * batch * 16))
}

func BenchmarkEmptySuperstep(b *testing.B) {
	for _, tr := range allTransports() {
		for _, p := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/p=%d", tr.Name(), p), func(b *testing.B) {
				benchSupersteps(b, tr, p)
			})
		}
	}
}

// BenchmarkSendThroughput measures packet throughput in a total
// exchange (the transport's g). Error handling mirrors benchSupersteps:
// collect per goroutine, report after the barrier.
func BenchmarkSendThroughput(b *testing.B) {
	const p, batch = 4, 256
	msg := make([]byte, 16)
	for _, tr := range allTransports() {
		b.Run(tr.Name(), func(b *testing.B) {
			eps, err := tr.Open(p)
			if err != nil {
				b.Fatal(err)
			}
			errs := make([]error, p)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < p; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ep := eps[i]
					ep.Begin()
					for n := 0; n < b.N; n++ {
						for dst := 0; dst < p; dst++ {
							for k := 0; k < batch; k++ {
								ep.Send(dst, msg)
							}
						}
						if _, err := ep.Sync(); err != nil {
							errs[i] = errors.Join(err, ep.Close())
							return
						}
					}
					errs[i] = ep.Close()
				}()
			}
			wg.Wait()
			b.StopTimer()
			for i, err := range errs {
				if err != nil {
					b.Fatalf("proc %d: %v", i, err)
				}
			}
			b.SetBytes(int64(p * batch * 16))
		})
	}
}
