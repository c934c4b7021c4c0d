package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// checkGoroutines is the leak guard for abort, reject and timeout paths,
// which historically are where reader/monitor goroutines get orphaned.
// It snapshots the goroutines running or started by this package's code
// and returns a teardown failing the test if a new one outlives it.
// Nothing here waits for time to pass: every goroutine the package
// starts is joined by its owner's Close (Coordinator.Close, the
// endpoint's teardown, ChaosProxy.Close), so by the time the teardown
// runs a survivor is a leak — except that a goroutine released by
// wg.Done may still be executing its return, hence the bounded yield.
// Register it first (defer checkGoroutines(t)()) so it runs after every
// other cleanup.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	ours := func() map[string]string {
		buf := make([]byte, 1<<20)
		stacks := map[string]string{}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if header, _, _ := strings.Cut(g, " ["); strings.Contains(g, "repro/internal/transport.") {
				stacks[header] = g // header is "goroutine N"
			}
		}
		return stacks
	}
	before := ours()
	return func() {
		t.Helper()
		var leaked []string
		for yields := 0; yields < 10_000; yields++ {
			leaked = leaked[:0]
			for id, stack := range ours() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			runtime.Gosched()
		}
		t.Errorf("goroutine leak: %d goroutine(s) of this package outlived the test\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestClusterLivenessConvictsStalledRank: a rank that stays connected
// but stops proving liveness — a hung process, not a dead one — must be
// convicted by the coordinator within the suspicion timeout and fanned
// out as a named crash declaration, long before any superstep timeout.
// The survivors' Sync must fail with a *CrashError naming the convicted
// rank and the rejoin epoch.
func TestClusterLivenessConvictsStalledRank(t *testing.T) {
	defer checkGoroutines(t)()
	const p = 3
	const suspectAfter = 500 * time.Millisecond
	coord, err := StartCoordinator(p, CoordinatorOptions{
		JobID: "hung", JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond, SuspectAfter: suspectAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	eps := joinGang(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "hung", P: p, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond, SuspectAfter: suspectAfter,
	})

	// Rank 1 hangs: sockets stay open, heartbeats stop.
	eps[1].(*tcpEndpoint).m.(*clusterMember).stopHeartbeats()
	start := time.Now()

	var wg sync.WaitGroup
	errs := make([]error, p)
	for _, r := range []int{0, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := eps[r]
			ep.Begin()
			ep.Send(1, []byte("to the hung rank"))
			if _, err := ep.Sync(); err != nil {
				errs[r] = err
				return
			}
			errs[r] = fmt.Errorf("rank %d: Sync with a hung peer succeeded", r)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if elapsed > 2*suspectAfter {
		t.Errorf("conviction took %v, want within 2x the %v suspicion timeout", elapsed, suspectAfter)
	}
	for _, r := range []int{0, 2} {
		err := errs[r]
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("rank %d: %v, want ErrCrashed", r, err)
		}
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("rank %d: %v, want *CrashError", r, err)
		}
		if ce.Rank != 1 || ce.Epoch != 0 || ce.NewEpoch != 1 || ce.JobID != "hung" {
			t.Errorf("rank %d: crash declaration %+v, want rank 1, epoch 0 -> 1, job hung", r, ce)
		}
	}
	// The coordinator fenced the failed generation: survivors rejoin at
	// the declaration's NewEpoch.
	if got := coord.Epoch(); got != 1 {
		t.Errorf("coordinator epoch after conviction = %d, want 1", got)
	}
	// The hung rank, when it wakes up, learns it was the one fenced. Its
	// peers' superstep-1 batches were posted eagerly and already sit in
	// its socket buffers, so only the crash frame — read by its control
	// goroutine, awaited here — stands between it and a clean superstep.
	select {
	case <-eps[1].(*tcpEndpoint).m.AbortCh():
	case <-time.After(5 * time.Second):
		t.Fatal("the convicted rank never received the crash declaration")
	}
	if _, err := eps[1].Sync(); err == nil {
		t.Error("the convicted rank's Sync must fail")
	} else {
		var ce *CrashError
		if !errors.As(err, &ce) || ce.Rank != 1 {
			t.Errorf("the convicted rank must see itself named, got: %v", err)
		}
	}
	for _, ep := range eps {
		ep.Close()
	}
}

// TestClusterJoinErrorsAreTyped: every JoinCluster failure — dial,
// handshake rejection, anything — is a *JoinError matching ErrJoin and
// naming job, rank and epoch, so launchers can classify membership
// failures without string matching.
func TestClusterJoinErrorsAreTyped(t *testing.T) {
	coord, err := StartCoordinator(1, CoordinatorOptions{JobID: "typed"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rejectErr := joinErr(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "other", Rank: 0, P: 1,
		JoinTimeout: 5 * time.Second,
	})
	if !errors.Is(rejectErr, ErrJoin) {
		t.Errorf("rejection must match ErrJoin, got: %v", rejectErr)
	}
	var je *JoinError
	if !errors.As(rejectErr, &je) || je.JobID != "other" || je.Rank != 0 {
		t.Errorf("rejection must carry identity, got: %v", rejectErr)
	}

	dialErr := joinErr(t, ClusterConfig{
		Coordinator: "127.0.0.1:1", JobID: "nobody", Rank: 2, P: 3, Epoch: 4,
		JoinTimeout: 300 * time.Millisecond,
	})
	if !errors.Is(dialErr, ErrJoin) {
		t.Errorf("dial failure must match ErrJoin, got: %v", dialErr)
	}
	je = nil
	if !errors.As(dialErr, &je) || je.Rank != 2 || je.Epoch != 4 {
		t.Errorf("dial failure must carry identity, got: %v", dialErr)
	}
}

// TestDialCoordinatorRetriesUntilListener: the member-side join dial
// retries with backoff under its overall deadline, so a rank launched a
// beat before its coordinator (or rejoining while the old listener is
// torn down) connects as soon as the listener appears instead of dying
// on the first ECONNREFUSED.
func TestDialCoordinatorRetriesUntilListener(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	const lag = 250 * time.Millisecond
	lnCh := make(chan net.Listener, 1)
	go func() {
		time.Sleep(lag)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("re-listen on %s: %v", addr, err)
			lnCh <- nil
			return
		}
		go func() {
			if c, err := ln.Accept(); err == nil {
				c.Close()
			}
		}()
		lnCh <- ln
	}()

	start := time.Now()
	c, err := dialCoordinator(addr, time.Now().Add(10*time.Second))
	elapsed := time.Since(start)
	if ln := <-lnCh; ln != nil {
		ln.Close()
	}
	if err != nil {
		t.Fatalf("dial with retry: %v", err)
	}
	c.Close()
	if elapsed < lag/2 {
		t.Errorf("dial succeeded in %v, before the listener could exist", elapsed)
	}

	// With no listener ever, the retry loop is bounded by the deadline.
	start = time.Now()
	if _, err := dialCoordinator(addr, time.Now().Add(300*time.Millisecond)); err == nil {
		t.Fatal("dial with no listener must fail")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("bounded dial took %v, want around the 300ms deadline", elapsed)
	}
}

// TestClusterCoordinatorSurvivesHalfOpenJoins: control connections that
// connect but never complete a handshake — one fully mute, one stalling
// mid-frame — must be dropped within the join timeout and must not
// wedge the coordinator: a legitimate gang joins while they dangle.
func TestClusterCoordinatorSurvivesHalfOpenJoins(t *testing.T) {
	defer checkGoroutines(t)()
	const joinTimeout = 400 * time.Millisecond
	coord, err := StartCoordinator(1, CoordinatorOptions{
		JobID: "mute", JoinTimeout: joinTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Peer 1: connects and never writes a byte.
	mute, err := net.DialTimeout("tcp", coord.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	// Peer 2: writes half a handshake frame, then stalls forever.
	stall, err := net.DialTimeout("tcp", coord.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	payload := wire.AppendCtrl(nil, wire.Join{Handshake: wire.Handshake{JobID: "mute", Rank: 0, P: 1}})
	frame := append([]byte{byte(len(payload)), 0, 0, 0}, payload...)
	if _, err := stall.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}

	// The coordinator stays serviceable while both dangle.
	ep, err := JoinCluster(ClusterConfig{
		Coordinator: coord.Addr(), JobID: "mute", Rank: 0, P: 1,
		JoinTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("legitimate join alongside half-open conns: %v", err)
	}
	ep.Close()

	// And both half-open conns are dropped within the join timeout.
	for name, c := range map[string]net.Conn{"mute": mute, "stalled": stall} {
		c.SetReadDeadline(time.Now().Add(4 * joinTimeout))
		// EOF or a reset both mean "dropped"; only a timeout (the conn
		// still dangling) is a failure. Data would be a protocol bug.
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s conn received data", name)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s conn still open after 4x the join timeout", name)
		}
	}
}

// TestClusterPartitionedJoinFailsCleanly: a network partition between a
// member and its coordinator during the join handshake fails the join
// within the member's deadline (typed as ErrJoin), and the coordinator
// comes through untouched — a full gang joins right after the fault.
func TestClusterPartitionedJoinFailsCleanly(t *testing.T) {
	defer checkGoroutines(t)()
	const p = 2
	coord, err := StartCoordinator(p, CoordinatorOptions{
		JobID: "split", JoinTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	proxy, err := NewChaosProxy(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// The route to the coordinator dies before the handshake can cross.
	proxy.Partition(time.Minute)
	start := time.Now()
	err = joinErr(t, ClusterConfig{
		Coordinator: proxy.Addr(), JobID: "split", Rank: 0, P: p,
		JoinTimeout: time.Second,
	})
	if !errors.Is(err, ErrJoin) {
		t.Errorf("partitioned join must match ErrJoin, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("partitioned join took %v, want bounded by the 1s join timeout", elapsed)
	}
	// Tear the route down rather than healing it: a heal would deliver
	// the held handshake of the long-gone member (partitioned traffic is
	// delayed, not lost), registering a ghost rank the fresh gang below
	// would collide with. The dead-host case is the one this test pins.
	proxy.Close()

	// The coordinator never saw the partitioned member; a real gang
	// joins and exchanges unharmed.
	var wg sync.WaitGroup
	errs := make([]error, p)
	eps := make([]Endpoint, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := JoinCluster(ClusterConfig{
				Coordinator: coord.Addr(), JobID: "split", Rank: r, P: p,
				JoinTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			eps[r] = ep
			ep.Begin()
			ep.Send(1-r, []byte("post-fault"))
			in, err := ep.Sync()
			if err != nil {
				errs[r] = err
				return
			}
			if got := drain(in); len(got) != 1 || string(got[0]) != "post-fault" {
				errs[r] = fmt.Errorf("inbox %q", got)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d after partition healed: %v", r, err)
		}
	}
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// TestClusterHeartbeatRTTEcho: the coordinator echoes each member
// beat back (bare: without its telemetry tail), and the member turns the echo of its newest
// beat into a round-trip observation — the bsp_heartbeat_rtt_seconds
// histogram and a flight-ring heartbeat event carrying the RTT.
func TestClusterHeartbeatRTTEcho(t *testing.T) {
	defer checkGoroutines(t)()
	coord, watch := watchCoordinator(t, 1, CoordinatorOptions{
		JobID: "rtt", JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	defer coord.Close()
	// Once the recorder is installed every beat carries telemetry, which
	// lets the test block on the coordinator's event stream: the
	// member's RTT accumulator rides every tail, so the first ingested
	// tail that carries an observation proves the member has recorded it.
	ep, err := JoinCluster(ClusterConfig{
		Coordinator: coord.Addr(), JobID: "rtt", Rank: 0, P: 1,
		JoinTimeout:       10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(1)
	ep.(TraceSetter).SetTrace(rec.Rank(0))

	for coord.StatusDoc().Ranks[0].RTTAvgNs == 0 {
		watch.await(t, "a telemetry tail carrying a heartbeat RTT", isIngest)
	}
	snap := rec.Metrics().Snapshot()
	if r0 := snap.Ranks[0]; r0.Heartbeats < 1 || r0.LastHeartbeatSeq < 1 || r0.RTTCount < 1 {
		t.Errorf("beats=%d lastSeq=%d echoes=%d, want all >= 1", r0.Heartbeats, r0.LastHeartbeatSeq, r0.RTTCount)
	}
	if snap.HeartbeatRTT.Sum <= 0 {
		t.Errorf("RTT histogram sum = %g, want > 0 (a loopback round trip takes time)", snap.HeartbeatRTT.Sum)
	}
	// The ring carries the observation too: a heartbeat event whose C
	// payload is the measured RTT in ns.
	evs, _ := rec.Rank(0).RingSnapshot()
	rtt := false
	for _, e := range evs {
		if e.Kind == trace.KindHeartbeat && e.C > 0 {
			rtt = true
		}
	}
	if !rtt {
		t.Error("no ring heartbeat event carries an RTT")
	}
	ep.(*tcpEndpoint).m.Leave()
	ep.Close()
}
