package transport

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shmParked is the test hook on the shm barrier: whether rank r has
// raised its parked flag, so it sleeps (or is about to) on its wake
// channel.
func shmParked(eps []Endpoint, r int) bool {
	e := eps[r].(*shmEndpoint)
	return e.st.parked[r*pad].Load()
}

// awaitParked yields until every rank but late is parked. It never
// sleeps; a rank that does not park within the deadline fails the test.
func awaitParked(t *testing.T, eps []Endpoint, late int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r := range eps {
		for r != late && !shmParked(eps, r) {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never parked", r)
			}
			runtime.Gosched()
		}
	}
}

// TestConformanceShmParkedWake drives every path that wakes a parked
// shm barrier waiter. Every rank but one enters the first superstep's
// Sync and parks; then the late rank acts, and each parked rank must
// return what the case wants instead of sleeping on. A lost wake-up
// shows as a rank still parked at the deadline.
func TestConformanceShmParkedWake(t *testing.T) {
	syncs := func(ep Endpoint) error { _, err := ep.Sync(); return err }
	ok := func(_ int, err error) error { return err }
	exited := func(peer int) func(int, error) error {
		return func(_ int, err error) error {
			want := fmt.Sprintf("process %d exited", peer)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "superstep 1") {
				return fmt.Errorf("want an error naming %q in superstep 1, got %v", want, err)
			}
			return nil
		}
	}
	for _, p := range []int{2, 4} {
		cases := []struct {
			name string
			late int
			// act is what the late rank does once the others are parked.
			act func(Endpoint) error
			// checked are the parked ranks whose Sync result want must
			// accept; the rest are unwound by closing every endpoint.
			checked []int
			want    func(r int, err error) error
		}{
			// (a) Ranks 1..p-1 park on the release; rank 0's late
			// arrival stores it and wakes them.
			{"release", 0, syncs, span(1, p), ok},
			// (b) Rank 0 parks on the last rank's arrival, which wakes
			// it; the ranks parked on the release follow.
			{"arrival", p - 1, syncs, span(0, p-1), ok},
			// (c) The group's abort channel wakes every parked rank.
			{"abort", p - 1, func(ep Endpoint) error { ep.Abort(); return nil }, span(0, p-1), func(_ int, err error) error {
				if !errors.Is(err, ErrAborted) {
					return fmt.Errorf("want ErrAborted, got %v", err)
				}
				return nil
			}},
			// (d) Rank 0 leaves instead of arriving: the ranks parked on
			// its release wake on its leave channel.
			{"leave-0", 0, Endpoint.Close, span(1, p), exited(0)},
			// (d) The last rank leaves instead of arriving: rank 0,
			// parked on its arrival, wakes on its leave channel.
			{"leave-last", p - 1, Endpoint.Close, []int{0}, exited(p - 1)},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				runParkedWake(t, p, tc.late, tc.act, tc.checked, tc.want)
			})
		}
	}
}

// span lists the ranks in [lo, hi).
func span(lo, hi int) []int {
	var r []int
	for i := lo; i < hi; i++ {
		r = append(r, i)
	}
	return r
}

// runParkedWake runs one case of TestConformanceShmParkedWake.
func runParkedWake(t *testing.T, p, late int, act func(Endpoint) error, checked []int, want func(int, error) error) {
	eps, err := ShmTransport{}.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rank int
		err  error
	}
	results := make(chan result, p)
	for r, ep := range eps {
		if r != late {
			go func() {
				ep.Begin()
				_, err := ep.Sync()
				results <- result{r, err}
			}()
		}
	}
	awaitParked(t, eps, late)
	go func() {
		eps[late].Begin()
		results <- result{late, act(eps[late])}
	}()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	pending := map[int]bool{late: true}
	for _, r := range checked {
		pending[r] = true
	}
	// Once every checked rank has returned, closing every endpoint
	// unwinds the rest. A late rank that act closed reports a second
	// Close as an error, which is ignored.
	closed := false
	closeAll := func() {
		if !closed {
			closed = true
			for _, ep := range eps {
				ep.Close()
			}
		}
	}
	defer closeAll()
	got := make(map[int]error)
	for len(got) < p {
		if len(pending) == 0 {
			closeAll()
		}
		select {
		case res := <-results:
			got[res.rank] = res.err
			if !pending[res.rank] {
				continue
			}
			delete(pending, res.rank)
			if res.rank == late {
				if res.err != nil {
					t.Errorf("late rank %d: %v", late, res.err)
				}
			} else if err := want(res.rank, res.err); err != nil {
				t.Errorf("rank %d: %v", res.rank, err)
			}
		case <-timeout.C:
			var parked []int
			for r := range eps {
				if shmParked(eps, r) {
					parked = append(parked, r)
				}
			}
			eps[late].Abort() // unwind what an abort still can
			closed = true     // and close no endpoint under a running Sync
			t.Fatalf("%d of %d ranks returned; ranks %v still parked: a wake-up was lost", len(got), p, parked)
		}
	}
}

// TestShmParkAllocFree pins the parked barrier path at zero allocations
// per superstep: in every superstep one rank, in turn, holds back until
// the others have parked (rank 0 on an arrival, the rest on the
// release), then Syncs and wakes them.
func TestShmParkAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const p, warmup, runs = 4, 8, 50
	eps, err := ShmTransport{}.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function once to warm up, then runs times.
	const steps = warmup + 1 + runs
	start := make([]chan struct{}, p)
	done := make(chan error, p)
	for r, ep := range eps {
		start[r] = make(chan struct{})
		go func() {
			ep.Begin()
			var err error
			for s := 0; s < steps; s++ {
				<-start[r]
				if err == nil {
					_, err = ep.Sync()
				}
				done <- err
			}
			ep.Close()
		}()
	}
	var failed error
	step := 0
	superstep := func() {
		late := step % p
		step++
		for r := range eps {
			if r != late {
				start[r] <- struct{}{}
			}
		}
		if failed == nil {
			awaitParked(t, eps, late)
		}
		start[late] <- struct{}{}
		for range eps {
			if err := <-done; err != nil {
				failed = err
			}
		}
	}
	for s := 0; s < warmup; s++ {
		superstep()
	}
	avg := testing.AllocsPerRun(runs, superstep)
	if failed != nil {
		t.Fatal(failed)
	}
	if avg != 0 {
		t.Errorf("%.2f allocs per superstep with parked waiters, want 0", avg)
	}
}
