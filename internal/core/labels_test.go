package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/transport"
)

// park signals parked, then blocks until release closes; its frame
// names the parked goroutines in the profile.
//
//go:noinline
func park(parked chan<- struct{}, release <-chan struct{}) {
	parked <- struct{}{}
	<-release
}

// checkRankLabels runs a p-rank machine whose ranks each call hold
// once, parking the rank and a goroutine it starts, and asserts from
// the goroutine profile that rank r's goroutine (its stack runs through
// runMachine) and its child (whose does not) carry bsp_rank = r.
func checkRankLabels(t *testing.T, p int, run func(hold func()) error) {
	t.Helper()
	parked, release := make(chan struct{}, 2*p), make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(func() {
			done := make(chan struct{})
			go func() { park(parked, release); close(done) }()
			park(parked, release)
			<-done
		})
	}()
	for n := 0; n < 2*p; n++ {
		select {
		case <-parked:
		case err := <-errCh:
			t.Fatalf("machine returned with %d of %d goroutines parked: %v", n, 2*p, err)
		}
	}
	var dump bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&dump, 1)
	close(release)
	if err := errors.Join(err, <-errCh); err != nil {
		t.Fatal(err)
	}
	// debug=1 prints one blank-line-separated record per distinct
	// (stack, labels): the labels line, then the frames.
	for r := 0; r < p; r++ {
		label := fmt.Sprintf(`# labels: {"bsp_rank":"%d"}`, r)
		var rank, child bool
		for _, rec := range strings.Split(dump.String(), "\n\n") {
			if strings.Contains(rec, label) && strings.Contains(rec, "core.park+") {
				inRank := strings.Contains(rec, "core.runMachine")
				rank, child = rank || inRank, child || !inRank
			}
		}
		if !rank || !child {
			t.Fatalf("bsp_rank %d: rank goroutine labelled %v, its child %v; goroutine profile:\n%s", r, rank, child, dump.String())
		}
	}
}

// TestRankLabels: ranks and their goroutines carry bsp_rank
// mid-superstep on a plain run, and while restoring on the attempt that
// resumes after an injected crash (a run that never resumes fails,
// since no rank parks). No CPU sampling is involved.
func TestRankLabels(t *testing.T) {
	const p, steps = 4, 4
	t.Run("run", func(t *testing.T) {
		checkRankLabels(t, p, func(hold func()) error {
			_, err := Run(Config{P: p, Transport: transport.XchgTransport{}}, func(c *Proc) {
				c.Sync()
				c.Send((c.ID()+1)%p, []byte{1})
				hold() // mid-superstep, a message queued
				c.Sync()
			})
			return err
		})
	})
	t.Run("recovered", func(t *testing.T) {
		crash := transport.NewChaosTransport(transport.ShmTransport{}, transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3})
		cfg := Config{P: p, Transport: crash, Checkpoint: &CheckpointConfig{Dir: t.TempDir(), Every: 1, Backoff: 1}}
		checkRankLabels(t, p, func(hold func()) error {
			_, err := Run(cfg, func(c *Proc) {
				if c.Step() > 0 {
					hold() // restoring, before the first Keep
				}
				tok := 1
				c.Keep(&tok)
				for s := c.Step(); s < steps; s++ {
					c.Send((c.ID()+1)%p, []byte{byte(s)})
					c.Sync()
				}
			})
			return err
		})
	})
}
