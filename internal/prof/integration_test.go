package prof_test

// End-to-end profiling: capture a CPU profile of a real multi-rank BSP
// run and check the whole chain — goroutine labels installed by core,
// phase marks from the transport, the hand-rolled profile parser, the
// attribution report, and its reconciliation against the trace
// recorder's compute spans.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	intP     = 4
	intSteps = 3
	// intSpinIters is the per-unit spin length; rank r runs (r+1) units
	// per superstep, so the machine burns roughly 10 units of CPU per
	// superstep — enough samples at the default 100 Hz for stable
	// shares even on a single-CPU host.
	intSpinIters = 60_000_000
)

// spinWork burns CPU without allocating. Every rank goroutine calls
// it, so the result is kept alive per call, not in a shared sink.
func spinWork(units int) {
	acc := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < units*intSpinIters; i++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	runtime.KeepAlive(acc)
}

// skewedRun executes the profiled workload: rank r computes (r+1)
// units per superstep (a deliberate 1:2:3:4 skew so the per-rank
// compute ordering is unambiguous) and exchanges one small message per
// peer on the xchg transport, whose Sync carries the exchange marks.
func skewedRun(t *testing.T, lab *prof.Labeler, rec *trace.Recorder) {
	t.Helper()
	_, err := core.Run(core.Config{
		P:         intP,
		Transport: transport.XchgTransport{},
		Trace:     rec,
		Profile:   lab,
	}, func(c *core.Proc) {
		msg := []byte("superstep payload")
		for s := 0; s < intSteps; s++ {
			spinWork(c.ID() + 1)
			c.AddWork(c.ID() + 1)
			for dst := 0; dst < intP; dst++ {
				c.Send(dst, msg)
			}
			c.Sync()
			for {
				if _, ok := c.Recv(); !ok {
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProfileCoverageAndReconciliation is the acceptance gate of the
// profiling layer: in a CPU profile of a real 4-rank run at least 90%
// of CPU must carry both bsp_rank and bsp_phase labels, and the
// report's per-rank compute shares must order the ranks exactly as the
// trace recorder's compute spans do.
func TestProfileCoverageAndReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CPU capture")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	lab := prof.New("prof-integration", intP)
	rec := trace.New(intP)
	skewedRun(t, lab, rec)
	pprof.StopCPUProfile()

	p, err := prof.ParsePprof(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := prof.Attribute(p)
	t.Logf("profile: %d samples, total %d, labeled %d (%.1f%% coverage)",
		len(p.Samples), a.Total, a.Labeled, 100*a.Coverage())
	if a.Total == 0 {
		t.Fatal("CPU profile captured no samples")
	}
	if a.Coverage() < 0.90 {
		var report bytes.Buffer
		_ = prof.WriteWReport(&report, a, nil)
		t.Errorf("label coverage %.1f%% < 90%% — the BSP axes are losing CPU:\n%s", 100*a.Coverage(), report.String())
	}

	// The phase split must be compute-dominated: the workload is almost
	// pure spin, with only tiny exchanges at the barriers.
	phases := a.PhaseTotals()
	if phases["compute"] <= phases["sync"]+phases["exchange"]+phases["ckpt"] {
		t.Errorf("compute is not the dominant phase: %v", phases)
	}

	// Rank-ordering reconciliation: CPU-profile compute per rank and
	// trace-recorded compute spans must both order the ranks by the
	// 1:2:3:4 skew.
	profW := a.ComputeByRank()
	traceW := prof.TraceComputeNs(rec)
	if len(profW) != intP {
		t.Fatalf("compute CPU attributed to %d ranks, want %d: %v", len(profW), intP, profW)
	}
	po, to := prof.RankOrderDesc(profW), prof.RankOrderDesc(traceW)
	want := fmt.Sprint([]int{3, 2, 1, 0})
	if fmt.Sprint(po) != want {
		t.Errorf("profile compute ordering %v, want %s (CPU by rank: %v)", po, want, profW)
	}
	if fmt.Sprint(to) != want {
		t.Errorf("trace compute ordering %v, want %s (w_i by rank: %v)", to, want, traceW)
	}

	var report bytes.Buffer
	if err := prof.WriteWReport(&report, a, traceW); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "agree=true") {
		t.Errorf("report does not confirm the orderings agree:\n%s", report.String())
	}
	t.Logf("W report:\n%s", report.String())
}

// TestProfileRuntimeTraceSmoke runs a short profiled machine while a
// runtime/trace capture is active: the per-superstep tasks and per-
// phase regions must open and close without tripping the tracer, and
// the capture must be non-empty.
func TestProfileRuntimeTraceSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := rtrace.Start(&buf); err != nil {
		t.Skipf("runtime tracing unavailable: %v", err)
	}
	lab := prof.New("rtrace-smoke", 2)
	_, err := core.Run(core.Config{P: 2, Transport: transport.XchgTransport{}, Profile: lab}, func(c *core.Proc) {
		for s := 0; s < 4; s++ {
			c.Send(1-c.ID(), []byte("x"))
			c.Sync()
			for {
				if _, ok := c.Recv(); !ok {
					break
				}
			}
		}
	})
	rtrace.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("runtime trace capture is empty")
	}
}
