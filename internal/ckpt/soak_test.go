// The chaos soak: the recovery tests of this package, run for a
// wall-clock budget over seeded faults. Round N draws every fault from
// rand.NewSource(N), so a failing round replays alone with
// -run 'TestSoak/seed=N$'.
package ckpt_test

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/launch"
	"repro/internal/transport"
)

var soak = flag.Duration("soak", 0, "run TestSoak's seeded fault rounds for this long (each kind at least once)")

// soakOceanGrid is the ocean grid of the in-process rounds, ocean's
// smallest registered size.
const soakOceanGrid = 18

// TestSoak cycles four kinds of seeded fault rounds until the -soak
// budget is spent: a hard crash of psort and of ocean on the
// shared-memory transport with checkpointing, a warm single-rank crash
// of a cluster gang (warmCrash), and a gang whose control plane is
// partitioned while it joins. Every round's result must be
// byte-identical to a fault-free run's, and no goroutine may outlive
// the soak.
func TestSoak(t *testing.T) {
	if *soak <= 0 {
		t.Skip("runs only with -soak <duration>")
	}
	kinds := []struct {
		name string
		run  func(t *testing.T, rng *rand.Rand, round int)
	}{
		{"shm-psort-crash", shmCrash("psort", e2eSize)},
		{"shm-ocean-crash", shmCrash("ocean", soakOceanGrid)},
		{"cluster-warm-crash", func(t *testing.T, rng *rand.Rand, round int) {
			// From superstep 2 on a complete cut exists to roll back to.
			warmCrash(t, fmt.Sprintf("soak-warm-%d", round), transport.FaultPlan{
				Seed: rng.Int63(), CrashRank: rng.Intn(recoveryP), CrashStep: 2 + rng.Intn(2)})
		}},
		{"cluster-partition-join", partitionJoin},
	}
	goroutines := runtime.NumGoroutine()
	deadline := time.Now().Add(*soak)
	ran := false
	for n := 1; n <= len(kinds) || time.Now().Before(deadline); n++ {
		kind := kinds[(n-1)%len(kinds)]
		called := false
		ok := t.Run(fmt.Sprintf("seed=%d", n), func(t *testing.T) {
			called = true
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("%s round failed; replay it alone: go test -count=1 -run 'TestSoak/seed=%d$' ./internal/ckpt/ -soak %v", kind.name, n, *soak)
				}
			})
			t.Logf("%s", kind.name)
			kind.run(t, rand.New(rand.NewSource(int64(n))), n)
		})
		if !ok || ran && !called {
			break // a failed round, or -run selected no later round
		}
		ran = ran || called
	}
	settleGoroutines(t, goroutines)
}

// shmCrash returns the round that runs one registered application on
// the shared-memory transport with checkpointing armed and a seeded
// hard crash, and requires the fault-free result back.
func shmCrash(name string, size int) func(*testing.T, *rand.Rand, int) {
	var inst apps.Instance
	var want any // the fault-free result, computed by the first round
	var steps int
	return func(t *testing.T, rng *rand.Rand, _ int) {
		if want == nil {
			app, err := apps.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			inst = app.New(size)
			res, st, err := inst.Run(core.Config{P: recoveryP, Transport: transport.ShmTransport{}})
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			want, steps = res, st.S()
		}
		// From superstep 2 on at least one complete cut exists (psort's
		// sample gather, ocean's first timestep boundary); the window
		// stays inside the program's first supersteps.
		plan := transport.FaultPlan{Seed: rng.Int63(), CrashRank: rng.Intn(recoveryP), CrashStep: 2 + rng.Intn(min(7, steps-2))}
		t.Logf("size %d, plan %s", size, plan)
		got, _, err := inst.Run(core.Config{
			P:           recoveryP,
			Transport:   transport.NewChaosTransport(transport.ShmTransport{}, plan),
			SyncTimeout: 30 * time.Second,
			Checkpoint:  &core.CheckpointConfig{Dir: t.TempDir(), Every: 1, Backoff: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("crashed run did not recover: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("recovered result diverges from the fault-free one")
		}
	}
}

// partitionJoin assembles a gang whose control plane runs through a
// chaos proxy that is partitioned when the ranks start dialing and
// stays a slow link for the whole run: the join retries must ride out
// the partition, the heartbeats must tolerate the delay, and the result
// must match the fault-free gang's with no relaunch.
func partitionJoin(t *testing.T, rng *rand.Rand, round int) {
	window := time.Duration(200+rng.Intn(400)) * time.Millisecond
	delay := time.Duration(rng.Intn(3)) * 500 * time.Microsecond
	t.Logf("join partition %v, control-plane delay %v", window, delay)
	outDir := t.TempDir()
	job := e2eGang(t, fmt.Sprintf("soak-part-%d", round), outDir, launch.Spec{}, false, 0)
	var proxy *transport.ChaosProxy
	var perr error
	job.AdvertiseCoordinator = func(addr string) string {
		if proxy, perr = transport.NewChaosProxy(addr); perr != nil {
			return addr
		}
		proxy.SetDelay(delay)
		proxy.Partition(window)
		return proxy.Addr()
	}
	err := job.Run()
	if proxy != nil {
		proxy.Close()
	}
	if perr != nil {
		t.Fatalf("chaos proxy: %v", perr)
	}
	if err != nil {
		t.Fatalf("gang behind the join partition failed: %v", err)
	}
	checkCensus(t, outDir, -1)
	comparePartitions(t, outDir)
}

// settleGoroutines waits for the goroutine count to return to base:
// every machine, gang supervisor, heartbeat loop and proxy pipe must
// have unwound.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d alive after the soak, %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
