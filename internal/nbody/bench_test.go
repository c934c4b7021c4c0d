package nbody

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func BenchmarkPlummer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Plummer(10000, int64(i))
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bodies := Plummer(n, 1)
			lo, hi := Bounds(bodies)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewTree(bodies, lo, hi)
			}
		})
	}
}

func BenchmarkForce(b *testing.B) {
	bodies := Plummer(10000, 1)
	lo, hi := Bounds(bodies)
	tree := NewTree(bodies, lo, hi)
	b.ResetTimer()
	interactions := 0
	for i := 0; i < b.N; i++ {
		_, k := tree.Force(bodies[i%len(bodies)].Pos, 0.5, 0.05)
		interactions += k
	}
	b.ReportMetric(float64(interactions)/float64(b.N), "interactions/op")
}

func BenchmarkEssential(b *testing.B) {
	bodies := Plummer(10000, 1)
	lo, hi := Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	universe := Box{Lo: lo, Hi: hi}
	positions := make([]Vec3, len(bodies))
	for i, bd := range bodies {
		positions[i] = bd.Pos
	}
	orb, err := BuildORB(positions, 8, universe)
	if err != nil {
		b.Fatal(err)
	}
	tree := NewTree(bodies, lo, hi)
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		points += len(tree.Essential(orb.Domain(i%8, universe), 0.5))
	}
	b.ReportMetric(float64(points)/float64(b.N), "points/op")
}

func BenchmarkBuildORB(b *testing.B) {
	bodies := Plummer(10000, 1)
	positions := make([]Vec3, len(bodies))
	for i, bd := range bodies {
		positions[i] = bd.Pos
	}
	lo, hi := Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	universe := Box{Lo: lo, Hi: hi}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildORB(positions, 16, universe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelStep(b *testing.B) {
	bodies := Plummer(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, bodies, 1); err != nil {
			b.Fatal(err)
		}
	}
}
