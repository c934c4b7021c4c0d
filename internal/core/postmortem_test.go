package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

// postmortemProgram is a small all-to-all: every rank sends one packet
// to every rank for steps supersteps.
func postmortemProgram(steps int) func(*Proc) {
	return func(c *Proc) {
		var pkt Pkt
		pkt[0] = byte(c.ID())
		for s := 0; s < steps; s++ {
			for dst := 0; dst < c.P(); dst++ {
				c.SendPkt(dst, &pkt)
			}
			c.Sync()
			for {
				if _, ok := c.GetPkt(); !ok {
					break
				}
			}
		}
	}
}

// TestPostmortemDumpOnCrash: a chaos-crashed shm run with Postmortem
// armed (and no Trace — the flight recorder is auto-armed) leaves a
// dump for every rank, and the crashed rank's dump carries the
// injected-crash fault at the right superstep.
func TestPostmortemDumpOnCrash(t *testing.T) {
	dir := t.TempDir()
	pm := &PostmortemConfig{Dir: dir, Job: "pm-shm"}
	tr := transport.NewChaosTransport(transport.ShmTransport{}, transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3})
	_, err := Run(Config{P: 4, Transport: tr, Postmortem: pm}, postmortemProgram(6))
	if err == nil {
		t.Fatal("crashed run returned nil error")
	}
	if _, gerr := trace.GatherBundle(dir); gerr != nil {
		t.Fatal(gerr)
	}
	dumps, cerr := trace.CheckBundle(dir)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if len(dumps) != 4 {
		t.Fatalf("bundle has %d dumps, want one per rank (4)", len(dumps))
	}
	for _, d := range dumps {
		if d.Epoch != 0 || d.Job != "pm-shm" || d.P != 4 {
			t.Fatalf("dump identity wrong: %+v", d)
		}
		if d.Reason == "" || len(d.Events) == 0 {
			t.Fatalf("rank %d dump is empty: reason=%q events=%d", d.Rank, d.Reason, len(d.Events))
		}
		if d.LastCompletedStep() != 1 {
			t.Errorf("rank %d last completed superstep = %d, want 1 (the barrier of step 2 never completes)",
				d.Rank, d.LastCompletedStep())
		}
	}
	var crashes int
	for _, d := range dumps {
		for _, e := range d.Events {
			if e.Kind == trace.KindFault && trace.FaultCode(e.A) == trace.FaultCrash {
				crashes++
				if e.Rank != 1 || e.Step != 2 {
					t.Errorf("crash fault at rank %d step %d, want rank 1 step 2", e.Rank, e.Step)
				}
			}
		}
	}
	if crashes != 1 {
		t.Errorf("bundle carries %d crash faults, want exactly 1", crashes)
	}
	// Stacks were captured alongside each dump.
	if _, err := os.Stat(filepath.Join(dir, "rank1", "stacks-e0.txt")); err != nil {
		t.Errorf("stacks file missing: %v", err)
	}
}

// TestPostmortemDumpDuringSync is the reentrancy test: on the
// in-process cluster transport a chaos crash makes the coordinator
// broadcast the ctrl dump frame, so survivors' dumps are triggered
// from their control-reader goroutines while their rank goroutines
// are still blocked in Sync. Under -race (the conformance tier runs
// this package with it) this proves a dump can snapshot a live rank's
// ring mid-superstep without tearing; the (rank, epoch) dedup must
// still yield exactly one dump per rank.
func TestPostmortemDumpDuringSync(t *testing.T) {
	dir := t.TempDir()
	pm := &PostmortemConfig{Dir: dir, Job: "pm-cluster"}
	tr := transport.NewChaosTransport(
		transport.ClusterTransport{},
		transport.FaultPlan{Seed: 1, CrashRank: 2, CrashStep: 2},
	)
	_, err := Run(Config{
		P:           4,
		Transport:   tr,
		Postmortem:  pm,
		SyncTimeout: 30 * time.Second,
	}, postmortemProgram(5))
	if err == nil {
		t.Fatal("crashed run returned nil error")
	}
	if _, gerr := trace.GatherBundle(dir); gerr != nil {
		t.Fatal(gerr)
	}
	dumps, cerr := trace.CheckBundle(dir)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if len(dumps) != 4 {
		t.Fatalf("bundle has %d dumps, want exactly one per rank (4) — the dedup must absorb the dump broadcast overlapping the local failure path", len(dumps))
	}
	seen := map[int]bool{}
	for _, d := range dumps {
		if seen[d.Rank] {
			t.Fatalf("rank %d dumped twice", d.Rank)
		}
		seen[d.Rank] = true
		for i := 1; i < len(d.Events); i++ {
			if d.Events[i].Start < d.Events[i-1].Start {
				t.Fatalf("rank %d dump events not time-sorted", d.Rank)
			}
		}
	}
	// At least one survivor's dump must carry the coordinator's reason
	// (the ctrl dump frame fired) or the crash declaration naming rank
	// 2 — either way the convicted rank is named outside its own
	// process view.
	named := false
	for _, d := range dumps {
		if d.Rank != 2 && strings.Contains(d.Reason, "rank 2") {
			named = true
		}
	}
	if !named {
		reasons := make([]string, 0, len(dumps))
		for _, d := range dumps {
			reasons = append(reasons, d.Reason)
		}
		t.Errorf("no survivor dump names the convicted rank 2; reasons: %q", reasons)
	}
}

// TestPostmortemDumpLoserWaitsForWinner: the same failure is dumped
// from two goroutines (the local failure path and the coordinator's
// dump broadcast). Whichever loses the race must not return before the
// winner's file is on disk — the rank goroutine exits the process right
// after.
func TestPostmortemDumpLoserWaitsForWinner(t *testing.T) {
	for i := 0; i < 20; i++ {
		pm := &PostmortemConfig{Dir: t.TempDir()}
		rec := trace.NewFlight(1)
		path := filepath.Join(pm.Dir, "rank0", "dump-e0.json")
		errs := make(chan error, 2)
		for g := 0; g < 2; g++ {
			go func() {
				pm.dump(rec, 0, 0, "race")
				_, err := os.Stat(path)
				errs <- err
			}()
		}
		for g := 0; g < 2; g++ {
			if err := <-errs; err != nil {
				t.Fatalf("a dump call returned before the dump existed: %v", err)
			}
		}
	}
}
