package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// joinGang joins ranks 0..cfg.P-1 of one gang concurrently, each with
// cfg and its own Rank, and fails the test if any join fails.
func joinGang(t *testing.T, cfg ClusterConfig) []Endpoint {
	t.Helper()
	eps, errs := make([]Endpoint, cfg.P), make([]error, cfg.P)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Rank = r
			eps[r], errs[r] = JoinCluster(c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return eps
}

// rawControlJoin performs only the control-plane half of a join — the
// Join message — and returns the open control connection. It lets
// tests impersonate a partially-alive rank.
func rawControlJoin(coord, job string, rank, epoch, p int, dataAddr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", coord, 5*time.Second)
	if err != nil {
		return nil, err
	}
	join := wire.Join{Handshake: wire.Handshake{JobID: job, Rank: rank, Epoch: epoch, P: p}, DataAddr: dataAddr}
	if err := wire.NewCtrlConn(c).Write(join); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// coordWatch records a coordinator's event stream — every event the
// machine has processed, with the actions the shell has performed for
// it — so a real-socket test orders itself on what the coordinator has
// done instead of sleeping and hoping.
type coordWatch struct {
	mu   sync.Mutex
	seen []coordStep
	next int           // await's cursor into seen
	wake chan struct{} // closed, and replaced, on every step
}

type coordStep struct {
	ev   event
	acts []action
}

// watchCoordinator starts a coordinator whose steps are recorded.
func watchCoordinator(t *testing.T, p int, opts CoordinatorOptions) (*Coordinator, *coordWatch) {
	t.Helper()
	w := &coordWatch{wake: make(chan struct{})}
	coord, err := StartCoordinator(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Installed on the loop goroutine, which owns the field, before
	// anyone has the address: no step goes unrecorded.
	coord.call(func() {
		coord.observe = func(ev event, acts []action) {
			w.mu.Lock()
			w.seen = append(w.seen, coordStep{ev, acts})
			close(w.wake)
			w.wake = make(chan struct{})
			w.mu.Unlock()
		}
	})
	return coord, w
}

// await blocks until the coordinator has performed a step matching
// match (looking only at steps no earlier await consumed) and returns
// it.
func (w *coordWatch) await(t *testing.T, what string, match func(coordStep) bool) coordStep {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		w.mu.Lock()
		for w.next < len(w.seen) {
			step := w.seen[w.next]
			w.next++
			if match(step) {
				w.mu.Unlock()
				return step
			}
		}
		wake := w.wake
		w.mu.Unlock()
		select {
		case <-wake:
		case <-timeout:
			t.Fatalf("the coordinator never got to: %s", what)
		}
	}
}

// fencing matches the step that fenced a generation convicting rank.
func fencing(rank int) func(coordStep) bool {
	return func(s coordStep) bool {
		for _, a := range s.acts {
			if f, ok := a.(Fence); ok && f.Rank == rank {
				return true
			}
		}
		return false
	}
}

func isConnLost(s coordStep) bool { _, ok := s.ev.(evConnLost); return ok }

// isIngest matches a step that handed a telemetry frame to the aggregate.
func isIngest(s coordStep) bool {
	for _, a := range s.acts {
		if _, ok := a.(actIngest); ok {
			return true
		}
	}
	return false
}

// joinErr runs one JoinCluster expecting failure and returns the error.
func joinErr(t *testing.T, cfg ClusterConfig) error {
	t.Helper()
	ep, err := JoinCluster(cfg)
	if err == nil {
		ep.Close()
		t.Fatalf("JoinCluster(rank %d) unexpectedly succeeded", cfg.Rank)
	}
	return err
}

// TestClusterRejectsWrongJobID: a handshake carrying another job's id
// must be fenced at the coordinator with an error naming both ids.
func TestClusterRejectsWrongJobID(t *testing.T) {
	defer checkGoroutines(t)()
	coord, err := StartCoordinator(1, CoordinatorOptions{JobID: "right-job"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	err = joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "wrong-job", Rank: 0, P: 1,
		JoinTimeout: 5 * time.Second,
	})
	if !strings.Contains(err.Error(), `wrong job id "wrong-job"`) || !strings.Contains(err.Error(), "right-job") {
		t.Errorf("error must name both job ids, got: %v", err)
	}
}

// TestClusterRejectsDuplicateRank: the second process presenting an
// already-joined rank is rejected by name, and the first is untouched.
// The machine-table rows pin the protocol; this is the same over real
// sockets, with the duplicate presented only once the coordinator has
// admitted the legitimate rank 0 (two concurrent joins are otherwise
// ordered by nothing: whichever handshake the coordinator reads first
// wins, and the loser is the "duplicate").
func TestClusterRejectsDuplicateRank(t *testing.T) {
	defer checkGoroutines(t)()
	coord, watch := watchCoordinator(t, 2, CoordinatorOptions{JobID: "dup", JoinTimeout: 5 * time.Second})
	defer coord.Close()
	firstErr := make(chan error, 1)
	go func() {
		// Legitimate rank 0: blocks waiting for rank 1, and is
		// eventually unblocked when the coordinator closes.
		_, err := JoinCluster(ClusterConfig{
			Coordinator: coord.Addr(), JobID: "dup", Rank: 0, P: 2,
			JoinTimeout: 5 * time.Second,
		})
		firstErr <- err
	}()
	watch.await(t, "rank 0 admitted", func(s coordStep) bool {
		j, ok := s.ev.(evJoin)
		return ok && j.join.Rank == 0 && len(s.acts) == 0
	})
	dupErr := joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "dup", Rank: 0, P: 2,
		JoinTimeout: 5 * time.Second,
	})
	if !strings.Contains(dupErr.Error(), "duplicate rank 0") {
		t.Errorf("the duplicate must be rejected by name, got: %v", dupErr)
	}
	coord.Close()
	if err := <-firstErr; err == nil {
		t.Error("rank 0 should fail once the coordinator closes")
	}
}

// TestClusterRejectsStaleEpoch: after the gang generation advances (a
// recovery relaunch), a straggler of the previous generation must be
// fenced at the handshake, with the error telling it the current epoch.
func TestClusterRejectsStaleEpoch(t *testing.T) {
	coord, err := StartCoordinator(1, CoordinatorOptions{JobID: "gen", Epoch: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if got := coord.AdvanceEpoch(); got != 1 {
		t.Fatalf("AdvanceEpoch = %d, want 1", got)
	}
	err = joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "gen", Rank: 0, P: 1, Epoch: 0,
		JoinTimeout: 5 * time.Second,
	})
	if !strings.Contains(err.Error(), "stale epoch 0") || !strings.Contains(err.Error(), "epoch 1") {
		t.Errorf("stale-epoch rejection must name both epochs, got: %v", err)
	}
	// The converse fence: an epoch from the future is rejected too.
	err = joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "gen", Rank: 0, P: 1, Epoch: 7,
		JoinTimeout: 5 * time.Second,
	})
	if !strings.Contains(err.Error(), "epoch 7 not yet current") {
		t.Errorf("future-epoch rejection, got: %v", err)
	}
}

// TestClusterJoinTimeoutNamesSilentRank: a gang missing a rank — here
// rank 1 never even connects — must not hang: the joined ranks are
// rejected after the join timeout with the missing rank named.
func TestClusterJoinTimeoutNamesSilentRank(t *testing.T) {
	defer checkGoroutines(t)()
	coord, err := StartCoordinator(2, CoordinatorOptions{
		JobID: "silent", JoinTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	start := time.Now()
	err = joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "silent", Rank: 0, P: 2,
		JoinTimeout: 10 * time.Second, // the member is patient; the coordinator is not
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("join took %v; the coordinator's 300ms timeout should have fired", elapsed)
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "[1]") {
		t.Errorf("timeout rejection must name missing rank 1, got: %v", err)
	}
}

// TestClusterSilentDataPeer: a peer that completes the control join but
// never opens its data plane must surface as an error (via the join
// deadline on the data-plane establishment), not a hang. The silent
// rank uses a raw control connection so the coordinator admits it.
func TestClusterSilentDataPeer(t *testing.T) {
	coord, err := StartCoordinator(2, CoordinatorOptions{
		JobID: "halfway", JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Rank 0 joins the control plane with a bogus data address and then
	// goes silent: rank 1 dials lower ranks, so its dial of that address
	// must fail the join and name the unreachable peer.
	silent, err := rawControlJoin(coord.Addr(), "halfway", 0, 0, 2, "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	err = joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "halfway", Rank: 1, P: 2,
		JoinTimeout: 2 * time.Second,
	})
	if !strings.Contains(err.Error(), "rank 1 dial rank 0") {
		t.Errorf("error must name the unreachable peer, got: %v", err)
	}
}

// TestClusterMemberAdapter: two independent members (separate group
// cores, exactly as two OS processes would have) exchange over real
// sockets through the Transport adapter.
func TestClusterMemberAdapter(t *testing.T) {
	const p = 2
	coord, err := StartCoordinator(p, CoordinatorOptions{JobID: "adapter", JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewClusterMember(ClusterConfig{
				Coordinator: coord.Addr(), JobID: "adapter", Rank: r, P: p,
				JoinTimeout: 10 * time.Second,
			})
			eps, err := m.Open(p)
			if err != nil {
				errs[r] = err
				return
			}
			if len(eps) != 1 || eps[0].ID() != r {
				errs[r] = fmt.Errorf("member opened %d endpoints, id %d", len(eps), eps[0].ID())
				return
			}
			ep := eps[0]
			defer ep.Close()
			ep.Begin()
			for s := 0; s < 3; s++ {
				ep.Send(1-r, msgFor(r, 1-r, s, 0))
				in, err := ep.Sync()
				if err != nil {
					errs[r] = fmt.Errorf("step %d: %w", s, err)
					return
				}
				got := drain(in)
				if len(got) != 1 || string(got[0]) != string(msgFor(1-r, r, s, 0)) {
					errs[r] = fmt.Errorf("step %d: inbox %q", s, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	m := NewClusterMember(ClusterConfig{P: 2})
	if _, err := m.Open(4); err == nil {
		t.Error("width mismatch must be rejected")
	}
}

// TestClusterCrashFansOutAsAbort: a member whose process dies without
// leaving (its control connection drops) must turn into a gang-wide
// abort, not a hang — the coordinator's crash fan-out.
func TestClusterCrashFansOutAsAbort(t *testing.T) {
	defer checkGoroutines(t)()
	const p = 2
	coord, err := StartCoordinator(p, CoordinatorOptions{JobID: "crashy", JoinTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eps := joinGang(t, ClusterConfig{Coordinator: coord.Addr(), JobID: "crashy", P: p, JoinTimeout: 10 * time.Second})
	// Rank 1 "crashes": every socket dies with no abort and no leave,
	// exactly like a killed process.
	crashed := eps[1].(*tcpEndpoint)
	crashed.closeConns()
	crashed.m.(*clusterMember).ctrl.nc.Close()
	// Rank 0, mid-exchange, must unwind with an error, not hang.
	done := make(chan error, 1)
	go func() {
		eps[0].Send(1, []byte("hi"))
		_, err := eps[0].Sync()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("rank 0 must fail once its peer crashed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 0 hung on a crashed peer")
	}
	eps[0].Close()
}
