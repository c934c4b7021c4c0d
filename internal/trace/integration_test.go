// End-to-end observability conformance: a machine that is hard-crashed
// by the chaos fault and recovered through core.Run must
// leave a single coherent trace — every superstep's compute and sync
// spans on every rank, the per-pair exchange batches, the checkpoint
// saves, the crash fault, the rollback marker and the restore spans of
// the re-execution — and the Chrome export of that trace must carry
// one superstep span per rank per superstep. This lives in package
// trace_test (external) so it can drive core, the transports and a
// checkpointing application together without an import cycle.
package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/psort"
	"repro/internal/trace"
	"repro/internal/transport"
)

const traceP = 4

func tracedCrashRun(t *testing.T, base transport.Transport) (*trace.Recorder, *core.Stats) {
	t.Helper()
	data := psort.RandomData(4000, 1996)
	plan := transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3}
	rec := trace.New(traceP)
	cfg := core.Config{
		P:         traceP,
		Transport: transport.NewChaosTransport(base, plan),
		Checkpoint: &core.CheckpointConfig{
			Dir:     t.TempDir(),
			Every:   1,
			Backoff: time.Millisecond,
		},
		Trace: rec,
	}
	_, st, err := psort.Parallel(cfg, data)
	if err != nil {
		t.Fatalf("recoverable run failed: %v", err)
	}
	if st.Ckpt == nil || st.Ckpt.Attempts < 2 || st.Ckpt.ResumeStep < 1 {
		t.Fatalf("the crash must have fired and recovery resumed from a snapshot: %+v", st.Ckpt)
	}
	return rec, st
}

// TestTraceRecoveredRun: the recorded event stream of a crashed and
// recovered run is complete and consistent, on two transports with
// different instrumentation paths (shm per-pair blocks, tcp staged
// exchange).
func TestTraceRecoveredRun(t *testing.T) {
	for name, base := range map[string]transport.Transport{
		"shm": transport.ShmTransport{},
		"tcp": transport.TCPTransport{},
	} {
		t.Run(name, func(t *testing.T) {
			rec, st := tracedCrashRun(t, base)
			// The machine's supersteps: the final attempt ran Syncs
			// supersteps starting at ResumeStep.
			steps := st.Ckpt.ResumeStep + st.Syncs

			type rs struct{ rank, step int }
			syncs := map[rs]int{}
			computes := map[rs]int{}
			pairSteps := map[int]bool{}
			var saves, restores, crashes, rollbacks int
			var rollbackTo = -1
			for _, e := range rec.Events() {
				k := rs{int(e.Rank), int(e.Step)}
				switch e.Kind {
				case trace.KindSync:
					syncs[k]++
					if e.End < e.Start {
						t.Fatalf("negative sync span: %+v", e)
					}
				case trace.KindCompute:
					computes[k]++
				case trace.KindPair:
					pairSteps[int(e.Step)] = true
					if e.B <= 0 || e.C <= 0 {
						t.Fatalf("pair event without bytes/frames: %+v", e)
					}
				case trace.KindCkptSave:
					saves++
				case trace.KindCkptRestore:
					restores++
				case trace.KindFault:
					if trace.FaultCode(e.A) == trace.FaultCrash {
						crashes++
						if e.Rank != 1 || int(e.Step) != 2 {
							t.Fatalf("crash attributed to rank %d step %d, want rank 1 step 2", e.Rank, e.Step)
						}
					}
				case trace.KindRollback:
					rollbacks++
					rollbackTo = int(e.B)
					if e.Rank != trace.MachineRank {
						t.Fatalf("rollback not on the machine track: %+v", e)
					}
				}
			}
			for step := 0; step < steps; step++ {
				for rank := 0; rank < traceP; rank++ {
					k := rs{rank, step}
					if syncs[k] < 1 || computes[k] < 1 {
						t.Fatalf("rank %d superstep %d missing spans (%d sync, %d compute)", rank, step, syncs[k], computes[k])
					}
				}
			}
			// The crashed superstep has pair events: attempt 1 may have
			// handed some batches before the crash propagated, and the
			// re-execution in attempt 2 certainly did — SetStepBase
			// realigns the resumed endpoints' counters, so those events
			// land on the global step 2, not on a fresh step 0.
			if !pairSteps[2] {
				t.Fatal("no pair events for the crashed superstep")
			}
			// And no pair event may fall outside the machine's supersteps
			// (a resumed endpoint whose counter was not realigned would
			// re-emit steps 0 and 1 during the re-execution of 2).
			for s := range pairSteps {
				if s < 0 || s >= steps {
					t.Fatalf("pair event on superstep %d, machine ran %d", s, steps)
				}
			}
			if crashes != 1 {
				t.Fatalf("crash fault events = %d, want 1", crashes)
			}
			if rollbacks != 1 || rollbackTo != st.Ckpt.ResumeStep {
				t.Fatalf("rollbacks = %d to step %d, want 1 to %d", rollbacks, rollbackTo, st.Ckpt.ResumeStep)
			}
			if restores != traceP {
				t.Fatalf("restore spans = %d, want %d (one per rank)", restores, traceP)
			}
			if saves < 2*traceP {
				t.Fatalf("checkpoint save spans = %d, want >= %d", saves, 2*traceP)
			}

			// Live metrics agree with the event stream on the scalar
			// counters.
			snap := rec.Metrics().Snapshot()
			var sum trace.Row
			for rank := range snap.Ranks {
				trace.AddCounters(&sum, &snap.Ranks[rank])
			}
			if sum.Rollbacks != int64(traceP) || sum.Restores != int64(traceP) || sum.CkptSaves != int64(saves) || sum.Faults < 1 {
				t.Fatalf("metrics disagree with events: %+v", snap)
			}
			for rank := 0; rank < traceP; rank++ {
				if snap.Ranks[rank].Steps < int64(st.Syncs) {
					t.Fatalf("rank %d metrics report %d supersteps, want >= %d", rank, snap.Ranks[rank].Steps, st.Syncs)
				}
			}

			// The Chrome export carries one superstep umbrella span per
			// rank per superstep, plus the crash and rollback markers.
			var buf bytes.Buffer
			if err := rec.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Ph   string         `json:"ph"`
					Tid  int            `json:"tid"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("chrome export is not valid JSON: %v", err)
			}
			umbrella := map[rs]int{}
			var sawCrash, sawRollback bool
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" && strings.HasPrefix(e.Name, "superstep ") {
					var step int
					if _, err := fmt.Sscanf(e.Name, "superstep %d", &step); err == nil {
						umbrella[rs{e.Tid, step}]++
					}
				}
				if e.Name == "chaos crash" {
					sawCrash = true
				}
				if strings.HasPrefix(e.Name, "rollback to superstep") {
					sawRollback = true
				}
			}
			for step := 0; step < steps; step++ {
				for rank := 0; rank < traceP; rank++ {
					if umbrella[rs{rank, step}] < 1 {
						t.Fatalf("chrome export missing superstep %d span for rank %d", step, rank)
					}
				}
			}
			if !sawCrash || !sawRollback {
				t.Fatalf("chrome export missing markers: crash=%v rollback=%v", sawCrash, sawRollback)
			}
		})
	}
}
