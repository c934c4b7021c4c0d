package core

import (
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/trace"
	"repro/internal/transport"
)

// stepProgram runs supersteps up to steps from wherever the machine
// resumed: in superstep s every rank reports s work units and sends
// s+1 packets to its right neighbour.
func stepProgram(steps int) func(*Proc) {
	return func(c *Proc) {
		var pkt Pkt
		for s := c.Step(); s < steps; s++ {
			for k := 0; k <= s; k++ {
				c.SendPkt((c.ID()+1)%c.P(), &pkt)
			}
			c.AddWork(s)
			c.Sync()
		}
	}
}

// recoveredRun runs stepProgram(6) traced on p = 4 with a crash of
// rank 1 in superstep 3 and a capture at every boundary, so the final
// attempt resumes from a snapshot; a resumed rank spends restore before
// the Keep that restores its token state.
func recoveredRun(t *testing.T, restore time.Duration) (*Stats, *trace.Recorder) {
	t.Helper()
	rec := trace.New(4)
	plan := transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3}
	cfg := Config{P: 4, Transport: transport.NewChaosTransport(transport.ShmTransport{}, plan), Trace: rec,
		Checkpoint: &CheckpointConfig{Dir: t.TempDir(), Backoff: time.Millisecond}}
	st, err := Run(cfg, func(c *Proc) {
		if c.Step() > 0 {
			time.Sleep(restore)
		}
		tok := 1
		c.Keep(&tok)
		stepProgram(6)(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ckpt.Attempts < 2 || st.Ckpt.ResumeStep < 1 {
		t.Fatalf("the crash must fire and the final attempt resume from a snapshot: %+v", st.Ckpt)
	}
	return st, rec
}

// TestStatsFromTraceAgrees: the trace's compute and barrier spans are
// the step records' own times, so replaying them reproduces every
// field of the run's Stats exactly.
func TestStatsFromTraceAgrees(t *testing.T) {
	for _, tr := range []transport.Transport{transport.ShmTransport{}, transport.TCPTransport{}} {
		t.Run(tr.Name(), func(t *testing.T) {
			rec := trace.New(4)
			st, err := Run(Config{P: 4, Transport: tr, Trace: rec}, stepProgram(5))
			if err != nil {
				t.Fatal(err)
			}
			got := StatsFromTrace(rec)
			if got.P != st.P || got.Syncs != st.Syncs || !slices.Equal(got.Steps, st.Steps) {
				t.Fatalf("replayed Stats differ:\n run    %+v\n replay %+v", st.Steps, got.Steps)
			}
			if s := st.Steps[1]; s.Straggler < 0 || s.Actual < s.MaxWork {
				t.Fatalf("superstep 1: %+v, want a straggler and Actual >= MaxWork", s)
			}
		})
	}
}

// TestResidualsRecoveredRun: a recovered run's rows cover the final
// attempt, numbered from its resume step, and equal the replay's rows
// for those supersteps; the replay also holds the steps before it.
func TestResidualsRecoveredRun(t *testing.T) {
	st, rec := recoveredRun(t, 0)
	pm := cost.SGI.Params(4)
	rows, replay := st.Residuals(pm), StatsFromTrace(rec).Residuals(pm)
	resume := st.Ckpt.ResumeStep
	if len(rows) != st.Syncs || len(replay) != resume+len(rows) || !slices.Equal(rows, replay[resume:]) {
		t.Fatalf("resumed at %d after %d syncs:\n run    %+v\n replay %+v", resume, st.Syncs, rows, replay)
	}
}

// TestRestoreNotChargedAsWork: a resumed rank's time up to its first
// Keep is the CkptRestore span, not the resumed first superstep's w_i.
func TestRestoreNotChargedAsWork(t *testing.T) {
	st, rec := recoveredRun(t, 30*time.Millisecond)
	if w := st.Steps[0].MaxWork; w >= 15*time.Millisecond {
		t.Fatalf("resumed superstep's MaxWork = %v includes the 30ms restore", w)
	}
	resume := int32(st.Ckpt.ResumeStep)
	restored, start := map[int32]int64{}, map[int32]int64{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindCkptRestore {
			restored[e.Rank] = e.End
		} else if e.Kind == trace.KindCompute && e.Step == resume {
			start[e.Rank] = e.Start // the final attempt's span is the last
		}
	}
	for r := int32(0); r < 4; r++ {
		if end, ok := restored[r]; !ok || start[r] < end {
			t.Fatalf("rank %d: first compute starts at %d, before its restore ended at %d (restored=%v)", r, start[r], end, ok)
		}
	}
}

// TestResiduals: the replayed per-superstep join of (w_i, h_i) and
// wall times with Equation 1, including straggler attribution and the
// last-execution-wins rule for supersteps recovery re-executed.
func TestResiduals(t *testing.T) {
	r := trace.New(2)
	b0, b1 := r.Rank(0), r.Rank(1)
	// Superstep 0: rank 1 computes longer and arrives last.
	b0.Compute(0, 0, 1000, 10)
	b0.SyncSpan(0, 1000, 1500, 4, 2, 0)
	b1.Compute(0, 0, 1200, 12)
	b1.SyncSpan(0, 1200, 1500, 2, 4, 0)
	// Superstep 1, first execution (to be superseded by the re-run).
	b0.Compute(1, 1500, 2600, 20)
	b0.SyncSpan(1, 2600, 3000, 8, 8, 0)
	b1.Compute(1, 1500, 2000, 9)
	b1.SyncSpan(1, 2000, 3000, 6, 6, 0)
	// Rollback; superstep 1 re-executes with different spans. The final
	// execution must win, matching Stats' final-attempt semantics.
	r.Rollback(2, 1)
	b0.Compute(1, 5000, 5400, 20)
	b0.SyncSpan(1, 5400, 5600, 8, 8, 0)
	b1.Compute(1, 5000, 5300, 9)
	b1.SyncSpan(1, 5300, 5600, 6, 6, 0)
	// Trailing compute with no sync (the finish segment) must not
	// produce a row.
	b0.Compute(2, 5600, 5700, 1)

	pm := cost.Params{G: 1, L: 1} // 1us per packet, 1us per superstep
	row := func(step int, w time.Duration, h int, actual time.Duration, straggler int) Residual {
		pred := pm.Predict(w, h, 1)
		return Residual{step, w, h, actual, pred, actual - pred, straggler}
	}
	// Superstep 1's work comes from the re-execution (400ns on rank 0),
	// not the superseded first run (1100ns).
	want := []Residual{row(0, 1200, 4, 1500, 1), row(1, 400, 8, 600, 0)}
	if rows := StatsFromTrace(r).Residuals(pm); !slices.Equal(rows, want) {
		t.Fatalf("rows %+v, want %+v (last execution must win)", rows, want)
	}
	// Predicted = w + g*h + L = 1.2us + 4us + 1us = 6.2us > 1.5us actual.
	if r := want[0].Ratio(); r <= 0 || r >= 1 {
		t.Fatalf("superstep 0 ratio = %v, want in (0,1) for an over-prediction", r)
	}
}

// TestWriteResidualReport: the report renders one line per superstep,
// marks the worst divergences and totals Equation 1 at the bottom.
func TestWriteResidualReport(t *testing.T) {
	r := trace.New(2)
	b0, b1 := r.Rank(0), r.Rank(1)
	for s := 0; s < 4; s++ {
		base := int64(s) * 10_000
		end := base + 2_000
		if s == 2 {
			end = base + 60_000 // the step the model misses worst
		}
		b0.Compute(s, base, base+1_000, 10)
		b0.SyncSpan(s, base+1_000, end, 2, 2, 0)
		b1.Compute(s, base, base+1_000, 10)
		b1.SyncSpan(s, base+1_000, end, 2, 2, 0)
	}
	var sb strings.Builder
	WriteResidualReport(&sb, StatsFromTrace(r), "SGI", cost.SGI.Params(2), 1)
	out := sb.String()
	for _, want := range []string{"cost-model residuals (SGI", "step", "straggler", "total: W="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Exactly one marker, on superstep 2's line.
	if n := strings.Count(out, "<- worst"); n != 1 || !regexp.MustCompile(`(?m)^  2 .*<- worst$`).MatchString(out) {
		t.Fatalf("want one worst marker, on superstep 2's line (got %d):\n%s", n, out)
	}
}

// TestResidualsEmpty: a recorder with no barrier span, or none at all,
// replays to no residual rows.
func TestResidualsEmpty(t *testing.T) {
	for _, r := range []*trace.Recorder{trace.New(2), nil} {
		if rows := StatsFromTrace(r).Residuals(cost.Params{G: 1, L: 1}); rows != nil {
			t.Fatalf("recorder %v produced rows: %+v", r, rows)
		}
	}
}

// TestWriteResidualReportEmpty: with no completed superstep the report
// is the one-line notice.
func TestWriteResidualReportEmpty(t *testing.T) {
	for _, r := range []*trace.Recorder{trace.New(2), nil} {
		var sb strings.Builder
		WriteResidualReport(&sb, StatsFromTrace(r), "SGI", cost.SGI.Params(2), 0)
		if !strings.Contains(sb.String(), "no completed supersteps") {
			t.Fatalf("empty report: %q", sb.String())
		}
	}
}
