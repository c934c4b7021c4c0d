package trace

import (
	"strings"
	"testing"
)

// TestDisabledPathAllocs: tracing off means every instrumentation site
// holds a nil *Buf / nil *Recorder. The whole disabled path must be a
// nil check — zero allocations, zero side effects — or the PR2
// exchange alloc gate would regress the moment the recorder landed.
func TestDisabledPathAllocs(t *testing.T) {
	var b *Buf
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		b.Compute(0, 0, 1, 2)
		b.SyncSpan(0, 1, 2, 3, 4, 0)
		b.Exchange(0, 1, 2)
		b.Pair(0, 1, 2, 3, 4, 4)
		b.CkptSave(0, 1, 2, 3)
		b.CkptRestore(0, 1, 2)
		b.Fault(0, FaultDelay, 1, 2)
		b.SetStepBase(2)
		_ = b.Now()
		r.Rollback(1, 0)
		_ = r.Rank(3)
		_ = r.Metrics()
		_ = r.Now()
		_ = r.P()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per batch of calls, want 0", allocs)
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events: %v", evs)
	}
}

// TestRecorderEvents: events recorded through the per-rank buffers and
// the machine track come back merged and sorted by start time.
func TestRecorderEvents(t *testing.T) {
	r := New(2)
	if r.P() != 2 {
		t.Fatalf("P() = %d, want 2", r.P())
	}
	if r.Rank(2) != nil || r.Rank(-1) != nil {
		t.Fatal("out-of-range Rank must be nil (the disabled path)")
	}
	b0, b1 := r.Rank(0), r.Rank(1)
	b0.Pair(0, 1, 900, 64, 4, 4)
	b0.Compute(0, 0, 1000, 5)
	b0.SyncSpan(0, 1000, 2000, 2, 1, 0)
	b1.Compute(0, 100, 1100, 6)
	b1.SyncSpan(0, 1100, 2100, 1, 2, 0)
	b1.Fault(0, FaultStall, 2150, 42)
	r.Rollback(2, 1)

	evs := r.Events()
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7: %+v", len(evs), evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events out of order at %d: %+v", i, evs)
		}
	}
	var rb *Event
	for i := range evs {
		if evs[i].Kind == KindRollback {
			rb = &evs[i]
		}
	}
	if rb == nil || rb.Rank != MachineRank || rb.A != 2 || rb.B != 1 {
		t.Fatalf("rollback event wrong: %+v", rb)
	}
}

// TestMetrics: Buf methods update the atomic counters at superstep
// granularity; Snapshot and the Prometheus text reflect them.
func TestMetrics(t *testing.T) {
	r := New(2)
	b0, b1 := r.Rank(0), r.Rank(1)
	b0.Compute(0, 0, 1000, 5)
	b0.SyncSpan(0, 1000, 2000, 3, 2, 0)
	b0.Pair(0, 1, 900, 64, 4, 4)
	b1.Compute(0, 100, 1100, 6)
	b1.SyncSpan(0, 1100, 2100, 1, 4, 0)
	b0.CkptSave(1, 2200, 2300, 128)
	b0.CkptRestore(1, 2400, 2500)
	b1.Fault(0, FaultCrash, 2150, 0)
	r.Rollback(2, 1)

	s := r.Metrics().Snapshot()
	if len(s.Ranks) != 2 {
		t.Fatalf("snapshot has %d rank rows", len(s.Ranks))
	}
	if s.Ranks[0].Steps != 1 || s.Ranks[0].WorkNs != 1000 || s.Ranks[0].WaitNs != 1000 ||
		s.Ranks[0].SentPkts != 3 || s.Ranks[0].RecvPkts != 2 {
		t.Fatalf("rank 0 snapshot wrong: %+v", s.Ranks[0])
	}
	if len(s.Pairs) != 1 || s.Pairs[0] != (Pair{Src: 0, Dst: 1, Bytes: 64, Frames: 4, Pkts: 4}) {
		t.Fatalf("pair matrix wrong (zero pairs must be omitted): %+v", s.Pairs)
	}
	if r0, r1 := s.Ranks[0], s.Ranks[1]; r0.PairBytes != 64 || r0.CkptSaves != 1 || r0.CkptBytes != 128 || r0.Restores != 1 ||
		r1.Faults != 1 || r0.Faults != 0 || r0.Rollbacks != 1 || r1.Rollbacks != 1 {
		t.Fatalf("resilience counters wrong: %+v", s.Ranks)
	}

	var sb strings.Builder
	r.Metrics().Snapshot().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`bsp_supersteps_total{rank="0"} 1`,
		`bsp_supersteps_total{rank="1"} 1`,
		`bsp_sent_packets_total{rank="0"} 3`,
		`bsp_recv_packets_total{rank="1"} 4`,
		`bsp_pair_bytes_total{src="0",dst="1"} 64`,
		`bsp_pair_frames_total{src="0",dst="1"} 4`,
		`bsp_sent_bytes_total{rank="0"} 64`,
		`bsp_checkpoint_snapshots_total{rank="0"} 1`,
		`bsp_checkpoint_bytes_total{rank="0"} 128`,
		`bsp_restores_total{rank="0"} 1`,
		`bsp_rollbacks_total{rank="1"} 1`,
		`bsp_faults_total{rank="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestKindAndFaultNames: the exported names are part of the trace
// schema (DESIGN.md documents them); renames break trace consumers.
func TestKindAndFaultNames(t *testing.T) {
	pairs := []struct{ got, want string }{
		{KindCompute.String(), "compute"},
		{KindSync.String(), "sync"},
		{KindExchange.String(), "exchange"},
		{KindPair.String(), "pair"},
		{KindCkptSave.String(), "checkpoint save"},
		{KindCkptRestore.String(), "restore"},
		{KindFault.String(), "fault"},
		{KindRollback.String(), "rollback"},
		{KindHeartbeat.String(), "heartbeat"},
		{KindHeartbeatMiss.String(), "heartbeat miss"},
		{KindWarmRestart.String(), "warm restart"},
		{Kind(0).String(), "unknown"},
		{FaultDelay.String(), "chaos delay"},
		{FaultStall.String(), "chaos stall"},
		{FaultAbort.String(), "chaos abort"},
		{FaultCrash.String(), "chaos crash"},
		{FaultCode(0).String(), "chaos fault"},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Fatalf("name %q, want %q", p.got, p.want)
		}
	}
}
