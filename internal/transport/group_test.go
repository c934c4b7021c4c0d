package transport

import (
	"sync"
	"testing"
	"time"
)

func TestLocalGroupJoinValidation(t *testing.T) {
	g, err := NewLocalGroup(3, GroupOptions{JobID: "j", Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rank() != 1 || m.P() != 3 || m.Options().JobID != "j" || m.Options().Epoch != 2 {
		t.Errorf("member identity: rank=%d p=%d opts=%+v", m.Rank(), m.P(), m.Options())
	}
	if _, err := g.Join(1); err == nil {
		t.Error("duplicate join should fail")
	}
	if _, err := g.Join(-1); err == nil {
		t.Error("negative rank should fail")
	}
	if _, err := g.Join(3); err == nil {
		t.Error("out-of-range rank should fail")
	}
	if _, err := NewLocalGroup(0, GroupOptions{}); err == nil {
		t.Error("p=0 group should fail")
	}
}

func TestGroupAbortFanOut(t *testing.T) {
	defer checkGoroutines(t)()
	g, _ := NewLocalGroup(2, GroupOptions{})
	m0, _ := g.Join(0)
	m1, _ := g.Join(1)

	var mu sync.Mutex
	hookRuns := 0
	m0.OnAbort(func() { mu.Lock(); hookRuns++; mu.Unlock() })

	if m0.Aborted() || m1.Aborted() {
		t.Fatal("fresh group must not be aborted")
	}
	m1.Abort()
	m1.Abort() // idempotent
	if !m0.Aborted() || !m1.Aborted() {
		t.Error("abort must be visible to every member")
	}
	select {
	case <-m0.AbortCh():
	default:
		t.Error("AbortCh must be closed after abort")
	}
	mu.Lock()
	if hookRuns != 1 {
		t.Errorf("abort hook ran %d times, want 1", hookRuns)
	}
	mu.Unlock()

	// A hook registered after the abort runs immediately.
	late := false
	m1.OnAbort(func() { late = true })
	if !late {
		t.Error("late OnAbort hook must run immediately")
	}
}

func TestGroupLeaveTracking(t *testing.T) {
	defer checkGoroutines(t)()
	g, _ := NewLocalGroup(3, GroupOptions{})
	members := make([]GroupMember, 3)
	for i := range members {
		members[i], _ = g.Join(i)
	}
	if members[0].Left(1) {
		t.Fatal("nobody has left yet")
	}
	if last := members[1].Leave(); last {
		t.Error("rank 1 is not the last to leave")
	}
	if !members[0].Left(1) || members[0].Left(0) || members[0].Left(2) {
		t.Error("leave flags wrong after rank 1 left")
	}
	select {
	case <-members[0].LeftCh(1):
	case <-time.After(time.Second):
		t.Error("LeftCh(1) must be closed")
	}
	if last := members[0].Leave(); last {
		t.Error("rank 0 is not the last to leave")
	}
	if last := members[2].Leave(); !last {
		t.Error("rank 2 is the last to leave and must be told so")
	}
}

func TestOpenWithOptionsFallsBack(t *testing.T) {
	// Every registered transport currently supports group options; the
	// helper must also accept a bare Transport (the ClusterMember
	// adapter is one) without crashing. Use a stub.
	for _, name := range Names() {
		tr, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.(GroupTransport); !ok {
			t.Errorf("%s: registered transports should implement GroupTransport", name)
		}
	}
	eps, err := OpenWithOptions(ShmTransport{}, 2, GroupOptions{JobID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		ep.Close()
	}
}

// TestGroupOptionsReachEndpoints pins that OpenGroup threads the job
// identity into the members every in-process transport joins.
func TestGroupOptionsReachEndpoints(t *testing.T) {
	opts := GroupOptions{JobID: "identity", Epoch: 5}
	for _, name := range []string{"shm", "xchg", "tcp", "sim", "cluster"} {
		tr, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		gt, ok := tr.(GroupTransport)
		if !ok {
			t.Fatalf("%s does not implement GroupTransport", name)
		}
		eps, err := gt.OpenGroup(2, opts)
		if err != nil {
			t.Fatalf("%s: OpenGroup: %v", name, err)
		}
		var wg sync.WaitGroup
		for _, ep := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ep.Begin()
				ep.Sync()
				ep.Close()
			}()
		}
		wg.Wait()
	}
}
