package psort

import "math/rand"

// RandomData returns n deterministic pseudo-random values.
func RandomData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// ZipfData returns n deterministic Zipf-distributed values — the
// skewed, duplicate-heavy workload that breaks naive sample sorts: a
// handful of head values dominate, so splitters chosen without origin
// tags would funnel whole equal-runs onto one rank.
func ZipfData(n int, seed int64) []float64 {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, max(uint64(n/8), 16))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(z.Uint64())
	}
	return out
}
