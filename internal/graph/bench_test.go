package graph

import (
	"fmt"
	"testing"
)

func BenchmarkGeometric(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Geometric(n, int64(i))
			}
		})
	}
}

func BenchmarkKruskal(b *testing.B) {
	g := Geometric(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KruskalMST(g)
	}
}

func BenchmarkPrim(b *testing.B) {
	g := Geometric(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primMST(g)
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := Geometric(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

func BenchmarkPartitionStrips(b *testing.B) {
	g := Geometric(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionStrips(g, 8)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uf := NewUnionFind(n)
		for j := 1; j < n; j++ {
			uf.Union(j, j/2)
		}
	}
}

func BenchmarkDistHeap(b *testing.B) {
	const n = 1 << 14
	for i := 0; i < b.N; i++ {
		var h DistHeap
		for j := 0; j < n; j++ {
			h.Push(float64(j^0x5a5a), int32(j))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
