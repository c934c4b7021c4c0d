package trace

import "testing"

// TestHistQuantileAndTotal: the quantile estimator must land inside
// the containing bucket and Total must report native units.
func TestHistQuantileAndTotal(t *testing.T) {
	h := newHist(durationBounds, 1e9)
	// 90 samples at ~2µs (bucket le=4096ns), 10 at ~1ms.
	for i := 0; i < 90; i++ {
		h.Observe(2_000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if s := h.Snapshot(); s.Count != 100 || s.Sum != (90*2_000+10*1_000_000)/1e9 {
		t.Fatalf("Snapshot count/sum = (%d, %g)", s.Count, s.Sum)
	}
	if q := h.Quantile(0.5); q < 1_000 || q > 4_096 {
		t.Errorf("p50 = %dns, want within the ~2µs bucket", q)
	}
	if q := h.Quantile(0.99); q < 262_144 || q > 1_048_576 {
		t.Errorf("p99 = %dns, want within the ~1ms bucket", q)
	}
	var nilH *Hist
	if nilH.Quantile(0.5) != 0 || len(nilH.AppendCounts(nil)) != 0 {
		t.Error("nil Hist accessors must return zeros")
	}
	counts := h.AppendCounts(nil)
	if len(counts) != len(durationBounds)+1 {
		t.Errorf("AppendCounts wrote %d buckets", len(counts))
	}
	var sum int64
	for _, v := range counts {
		sum += v
	}
	if sum != 100 {
		t.Errorf("AppendCounts buckets sum to %d", sum)
	}
}

// TestMetricsLastStep: SyncSpan must publish the newest completed
// global superstep per rank, monotone across rollback re-execution.
func TestMetricsLastStep(t *testing.T) {
	r := New(2)
	b := r.Rank(0)
	if got := r.Metrics().Rank(0).LastStep; got != -1 {
		t.Fatalf("LastStep before first barrier = %d, want -1", got)
	}
	b.SyncSpan(0, 0, 10, 1, 1, 0)
	b.SyncSpan(1, 20, 30, 1, 1, 0)
	b.SyncSpan(0, 40, 50, 1, 1, 0) // rollback replays step 0
	if got := r.Metrics().Rank(0).LastStep; got != 1 {
		t.Fatalf("LastStep = %d, want 1 (monotone across rollback)", got)
	}
	if got := r.Metrics().Rank(1).LastStep; got != -1 {
		t.Fatalf("rank 1 LastStep = %d, want -1", got)
	}
	if got := r.Metrics().Rank(0).PairBytes; got != 0 {
		t.Fatalf("PairBytes with no Pair events = %d", got)
	}
	b.Pair(0, 1, 5, 2048, 1, 128)
	if got := r.Metrics().Rank(0).PairBytes; got != 2048 {
		t.Fatalf("PairBytes = %d, want 2048", got)
	}
}
