package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// This file implements the out-of-process process group: the
// "cluster" transport, where each rank is its own OS process — the
// deployment shape of the paper's Appendix B.3 PC LAN machine. The
// pieces:
//
//   - Coordinator (coordinator.go; every decision is the pure state
//     machine of coordmachine.go): owns membership for one job — admits
//     ranks epoch by epoch, broadcasts the address book when all p have
//     joined (the readiness barrier), relays abort and leave, convicts
//     crashed and silent ranks. Every message is a wire.Ctrl variant.
//   - JoinCluster: the member side. It joins the coordinator, waits for
//     the address book, establishes the pairwise data connections (each
//     carrying a mutual handshake so a stale or foreign peer is fenced
//     at the data plane too), and returns an Endpoint backed by the
//     same staged total-exchange engine as TCPTransport.
//   - ClusterTransport: the in-process composition — Open starts a
//     coordinator and joins all p ranks as goroutines over real
//     loopback sockets, running the full join/handshake/book protocol.
//     This is what makes "cluster" a first-class registry transport
//     that the whole conformance + chaos + recovery matrix exercises.
//   - ClusterMember: a Transport adapter for a child process hosting
//     exactly one rank (bsprun -cluster workers, test children).
//
// The process supervisor that owns a Coordinator and launches one
// ClusterMember process per rank lives in internal/launch.

// settleTimeout is how long a cluster member waits, after a data-plane
// error, for the membership event (abort or leave broadcast) that
// explains it; on the loopback control plane the notification beats
// this by orders of magnitude.
const settleTimeout = 2 * time.Second

// ClusterConfig configures one rank's membership in a cluster job.
type ClusterConfig struct {
	// Coordinator is the control address of the job's Coordinator.
	Coordinator string
	// JobID, Rank, Epoch and P form this rank's handshake.
	JobID string
	Rank  int
	Epoch int
	P     int
	// JoinTimeout bounds the join, the address-book wait and the
	// pairwise data-plane establishment. 0 means
	// clusterDefaultJoinTimeout.
	JoinTimeout time.Duration
	// HeartbeatInterval and SuspectAfter tune this member's side of the
	// control-plane liveness protocol (beats sent, coordinator silence
	// tolerated); they should match the coordinator's settings. 0 means
	// the cluster defaults; negative disables. Once the rank has a
	// recorder, every beat also carries its telemetry.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// MetricsAddr is this rank's own bound /metrics address, reported
	// in its telemetry so /status can advertise real addresses instead
	// of a port convention. Optional.
	MetricsAddr string
	// Chaos, when non-nil, wraps this rank's endpoint in the fault
	// plan; ChaosCrash additionally arms the plan's one-shot crash
	// fault in this process. A child process uses this instead of
	// ChaosTransport, which wraps whole in-process machines.
	Chaos      *FaultPlan
	ChaosCrash bool

	// stageTimeout and wrapConn let the in-process ClusterTransport
	// thread its test seams (see TCPTransport) through JoinCluster.
	stageTimeout time.Duration
	wrapConn     func(local, peer int, c net.Conn) net.Conn
}

// clusterMember is the out-of-process GroupMember: the shared groupCore
// driven by coordinator control frames. Abort and Leave notify the
// coordinator; the control reader applies remote aborts, leaves and
// crash declarations to the local core (flag first, then hooks, so an
// exchange woken by a dying socket always sees the flag), and a
// heartbeat loop proves this process's liveness to the coordinator and
// carries its telemetry.
type clusterMember struct {
	core     *groupCore
	rank     int
	ctrl     *ctrlPeer
	ctrlWMu  sync.Mutex
	leftSelf atomic.Bool

	// crashCause holds the first crash declaration received; the
	// exchange engine surfaces it (via abortCauser) instead of the
	// anonymous ErrAborted.
	crashCause atomic.Pointer[CrashError]
	// buf is the rank's trace buffer once core installs it; only its
	// atomic Metrics methods are used here (the heartbeat and control
	// goroutines are not the rank goroutine). Beats carry telemetry
	// once it is set.
	buf atomic.Pointer[trace.Buf]
	// coordBeat is the unix-nano time of the coordinator's last frame.
	coordBeat atomic.Int64
	// hbSentSeq/hbSentAt record the newest heartbeat this member sent,
	// so the control reader can turn the coordinator's echo of that
	// beat into a round-trip observation.
	hbSentSeq atomic.Int64
	hbSentAt  atomic.Int64
	// dumpFn is the postmortem hook core installs via the endpoint's
	// SetDump: the control reader invokes it when the coordinator
	// broadcasts a wire.Dump. Stored as func(string) (the reason).
	dumpFn atomic.Value
	// hbStop ends the beat loop; stopping it while staying connected is
	// exactly what a stalled process looks like, which the suspicion
	// tests exploit. hbDone is closed once the loop has returned.
	hbStop, hbDone chan struct{}
	hbStopOnce     sync.Once
	wg             sync.WaitGroup // the control reader

	// Beat state (beat, telemetry.go), owned by the beat loop and, once
	// that has returned, by Leave: the newest beat's sequence number and
	// the telemetry snapshot and frame buffers, reused across beats.
	metricsAddr string
	hbSeq       uint32
	tmSnap      wire.Telemetry
	tmFrame     []byte
}

func (m *clusterMember) Rank() int                       { return m.rank }
func (m *clusterMember) P() int                          { return m.core.p }
func (m *clusterMember) Options() GroupOptions           { return m.core.opts }
func (m *clusterMember) OnAbort(fn func())               { m.core.onAbort(fn) }
func (m *clusterMember) Aborted() bool                   { return m.core.aborted.Load() }
func (m *clusterMember) AbortCh() <-chan struct{}        { return m.core.abortCh }
func (m *clusterMember) Left(rank int) bool              { return m.core.isLeft(rank) }
func (m *clusterMember) LeftCh(rank int) <-chan struct{} { return m.core.leftChan(rank) }

// Abort latches the local failure (unblocking this process's exchange)
// and notifies the coordinator, which fans the abort out to the gang.
func (m *clusterMember) Abort() {
	first := !m.core.aborted.Load()
	m.core.abort()
	if first {
		m.sendCtrl(wire.Abort{Reason: "local abort"})
	}
}

// Leave detaches this rank: the coordinator broadcasts the departure.
// The hosting process owns exactly one member, so Leave always reports
// last == true (the endpoint then tears down this process's sockets).
func (m *clusterMember) Leave() (last bool) {
	// One final beat once the loop has stopped (the ordered control
	// connection delivers it before the leave), so the coordinator's
	// job view is complete even for runs shorter than one interval.
	m.leftSelf.Store(true)
	m.stopHeartbeats()
	<-m.hbDone
	m.beat()
	m.sendCtrl(wire.Leave{Rank: m.rank})
	m.core.markLeft(m.rank)
	return true
}

// abortCause implements abortCauser: the crash declaration behind the
// abort, if the coordinator sent one.
func (m *clusterMember) abortCause() *CrashError { return m.crashCause.Load() }

// setTraceBuf receives the rank's trace buffer from the endpoint's
// SetTrace, for the metrics-only counters the liveness goroutines bump.
func (m *clusterMember) setTraceBuf(b *trace.Buf) { m.buf.Store(b) }

// setDumpFunc receives the postmortem hook from the endpoint's
// SetDump. The hook must be safe from the control-reader goroutine
// and tolerate duplicate invocations (the local failure path dumps
// too; the dedup lives in core).
func (m *clusterMember) setDumpFunc(fn func(reason string)) { m.dumpFn.Store(fn) }

func (m *clusterMember) stopHeartbeats() {
	m.hbStopOnce.Do(func() { close(m.hbStop) })
}

// shutdown ends the member's control connection and loops, after Leave
// and never on one of those loops. It half-closes and lets the reader
// drain until the coordinator, having read the Leave and the EOF,
// closes its side: closing with a relayed frame unread would answer the
// coordinator's next write with a reset, which can destroy this rank's
// Leave in its receive queue and get a clean exit convicted as a crash.
func (m *clusterMember) shutdown() {
	m.stopHeartbeats()
	<-m.hbDone
	if tc, ok := m.ctrl.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	m.ctrl.nc.SetReadDeadline(time.Now().Add(settleTimeout)) // a wedged coordinator must not wedge Close
	m.wg.Wait()
	m.ctrl.nc.Close()
}

// beatLoop is the member's one ticker loop. Every hb it beats (see
// beat) and accounts for the coordinator's beats in return: a
// coordinator silent past suspect means the membership service (and
// the launcher that owns it) is gone, so the member aborts rather than
// hang in a later exchange. A process whose beats are stalled (hbStop)
// thus sends nothing at all, and suspicion can convict it. hb <= 0
// disables the loop.
func (m *clusterMember) beatLoop(hb, suspect time.Duration) {
	defer close(m.hbDone)
	if hb <= 0 {
		return
	}
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-m.hbStop:
			return
		case <-m.core.abortCh:
			return
		case <-t.C:
		}
		m.beat()
		if last := m.coordBeat.Load(); last > 0 {
			gap := time.Now().UnixNano() - last
			if gap > 2*int64(hb) {
				m.buf.Load().HeartbeatMiss()
			}
			if suspect > 0 && gap > int64(suspect) {
				m.core.abort()
				return
			}
		}
	}
}

func (m *clusterMember) sendCtrl(msg wire.Ctrl) {
	m.ctrlWMu.Lock()
	defer m.ctrlWMu.Unlock()
	m.ctrl.send(msg) // a dead control connection surfaces in readControl
}

// settleFailure implements failureSettler: wait briefly for the
// membership event (gang abort or peer leave) explaining a data-plane
// error.
func (m *clusterMember) settleFailure(peer int) {
	if m.core.aborted.Load() || (peer != m.rank && m.core.isLeft(peer)) {
		return
	}
	t := time.NewTimer(settleTimeout)
	defer t.Stop()
	var leftCh <-chan struct{}
	if peer != m.rank {
		leftCh = m.core.leftChan(peer)
	}
	select {
	case <-m.core.abortCh:
	case <-leftCh:
	case <-t.C:
	}
}

// readControl applies coordinator broadcasts to the local core until
// the control connection dies. A connection lost before this rank left
// means the coordinator (or the launcher that owns it) is gone: the
// gang cannot recover its membership, so the run aborts.
func (m *clusterMember) readControl() {
	defer m.wg.Done()
	for {
		msg, err := m.ctrl.Read()
		if err != nil {
			if !m.leftSelf.Load() {
				m.core.abort()
			}
			return
		}
		m.coordBeat.Store(time.Now().UnixNano())
		switch msg := msg.(type) {
		case wire.Ping:
			// Two flavors arrive: the coordinator's own periodic beat
			// (Rank == CoordinatorRank; the liveness clock update above is
			// its whole effect) and the echo of this member's newest beat,
			// which closes the round trip the heartbeat loop opened.
			if msg.Rank == m.rank && int64(msg.Seq) == m.hbSentSeq.Load() {
				if at := m.hbSentAt.Load(); at > 0 {
					m.buf.Load().HeartbeatRTT(int(msg.Seq), time.Now().UnixNano()-at)
				}
			}
		case wire.Dump:
			// The coordinator failed the generation and wants every
			// member's forensics. Synchronous on purpose: the dump
			// completes before the crash/abort frame behind it is read,
			// so the ring still shows the moment of death.
			if fn, ok := m.dumpFn.Load().(func(string)); ok && fn != nil {
				fn(msg.Reason)
			}
		case wire.Abort:
			m.core.abort()
		case wire.Crash:
			m.crashCause.CompareAndSwap(nil, &CrashError{
				JobID:    m.core.opts.JobID,
				Rank:     msg.Rank,
				Epoch:    m.core.opts.Epoch,
				NewEpoch: msg.NewEpoch,
				Reason:   msg.Reason,
			})
			if msg.Rank != m.rank {
				m.buf.Load().WarmRestart(msg.Rank, msg.NewEpoch)
			}
			m.core.abort()
		case wire.Leave:
			if msg.Rank < m.core.p {
				m.core.markLeft(msg.Rank)
			}
		}
	}
}

// JoinCluster joins one rank into a cluster job and returns its
// Endpoint: the member's handshake is validated by the coordinator, the
// address-book broadcast is the readiness barrier, and every pairwise
// data connection exchanges mutual handshakes so job id and epoch are
// fenced on the data plane as well. The returned endpoint runs the same
// staged total-exchange engine as TCPTransport. Every error return is a
// *JoinError (matching ErrJoin) naming the job, rank and epoch.
func JoinCluster(cfg ClusterConfig) (Endpoint, error) {
	ep, err := joinCluster(cfg)
	if err != nil {
		return nil, &JoinError{JobID: cfg.JobID, Rank: cfg.Rank, Epoch: cfg.Epoch, Err: err}
	}
	return ep, nil
}

// dialCoordinator dials the coordinator's control address with
// jittered exponential backoff until the deadline: a rank racing the
// coordinator's listener — or dialing through a control-plane
// partition that heals — joins as soon as the address is reachable
// instead of failing fast on the first refused connection.
func dialCoordinator(addr string, deadline time.Time) (net.Conn, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := 5 * time.Millisecond
	for {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		rem := time.Until(deadline)
		if rem <= 0 {
			return nil, err
		}
		// Jitter in [0.5, 1.5) of the current backoff, capped by the
		// time remaining so the deadline stays an overall bound.
		pause := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		if pause > rem {
			pause = rem
		}
		time.Sleep(pause)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

func joinCluster(cfg ClusterConfig) (Endpoint, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("cluster: p must be >= 1, got %d", cfg.P)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.P {
		return nil, fmt.Errorf("cluster: rank %d out of range [0,%d)", cfg.Rank, cfg.P)
	}
	deadline := time.Now().Add(orDefault(cfg.JoinTimeout, clusterDefaultJoinTimeout))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: rank %d data listen: %w", cfg.Rank, err)
	}
	ctrl, err := dialCoordinator(cfg.Coordinator, deadline)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: rank %d dial coordinator %s: %w", cfg.Rank, cfg.Coordinator, err)
	}
	fail := func(err error) (Endpoint, error) {
		ctrl.Close()
		ln.Close()
		return nil, err
	}
	hs := wire.Handshake{JobID: cfg.JobID, Rank: cfg.Rank, Epoch: cfg.Epoch, P: cfg.P}
	peer := newCtrlPeer(ctrl)
	ctrl.SetDeadline(deadline)
	if err := peer.Write(wire.Join{Handshake: hs, DataAddr: ln.Addr().String()}); err != nil {
		return fail(fmt.Errorf("cluster: rank %d handshake: %w", cfg.Rank, err))
	}
	reply, err := peer.Read()
	if err != nil {
		return fail(fmt.Errorf("cluster: rank %d waiting for the gang to assemble: %w", cfg.Rank, err))
	}
	ctrl.SetDeadline(time.Time{})
	var book []string
	switch reply := reply.(type) {
	case wire.Reject:
		return fail(fmt.Errorf("cluster: rank %d join rejected: %s", cfg.Rank, reply.Reason))
	case wire.Book:
		if book = reply.Addrs; len(book) != cfg.P {
			return fail(fmt.Errorf("cluster: rank %d: address book for %d ranks, want %d", cfg.Rank, len(book), cfg.P))
		}
	default:
		return fail(fmt.Errorf("cluster: rank %d: unexpected control message %T before readiness", cfg.Rank, reply))
	}

	core := newGroupCore(cfg.P, GroupOptions{JobID: cfg.JobID, Epoch: cfg.Epoch})
	m := &clusterMember{core: core, rank: cfg.Rank, ctrl: peer, metricsAddr: cfg.MetricsAddr,
		hbStop: make(chan struct{}), hbDone: make(chan struct{})}
	m.coordBeat.Store(time.Now().UnixNano())
	m.wg.Add(1)
	go m.readControl()
	go m.beatLoop(orDefault(cfg.HeartbeatInterval, clusterDefaultHeartbeatInterval), orDefault(cfg.SuspectAfter, DefaultSuspectAfter))

	conns, err := dataPlane(cfg, hs, ln, book, deadline)
	ln.Close()
	if err != nil {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		// Leave rather than lingering: the coordinator should not turn
		// our failed join into a gang-wide crash abort twice.
		m.Leave()
		m.shutdown()
		return nil, err
	}

	st := &tcpState{
		p:        cfg.P,
		sched:    NewPairSchedule(cfg.P),
		timeout:  orDefault(cfg.stageTimeout, tcpDefaultStageTimeout),
		wrapConn: cfg.wrapConn,
	}
	e := newTCPEndpoint(st, m, cfg.Rank)
	for peer, c := range conns {
		if c != nil {
			e.setConn(peer, c)
		}
	}
	st.setTeardown(func() {
		e.closeConns()
		m.shutdown()
	})
	// A gang abort must unblock this process's exchange immediately;
	// the control connection stays up so the coordinator can still see
	// our leave.
	m.OnAbort(e.closeConns)
	var ep Endpoint = e
	if cfg.Chaos != nil {
		ep = NewChaosEndpoint(e, *cfg.Chaos, cfg.ChaosCrash)
	}
	return ep, nil
}

// dataPlane establishes this rank's p-1 pairwise data connections:
// dial every lower rank, accept from every higher rank, and exchange
// mutual handshakes on each connection. The dependency order is
// acyclic (a rank's dials only wait on lower ranks' accept loops), so
// the sequential establishment cannot deadlock; the kernel listen
// backlog holds early dials from higher ranks.
func dataPlane(cfg ClusterConfig, hs wire.Handshake, ln net.Listener, book []string, deadline time.Time) ([]net.Conn, error) {
	conns := make([]net.Conn, cfg.P)
	checkPeer := func(ph wire.Handshake, wantRank int) error {
		switch {
		case ph.JobID != cfg.JobID:
			return fmt.Errorf("peer presented job id %q, want %q", ph.JobID, cfg.JobID)
		case ph.Epoch != cfg.Epoch:
			return fmt.Errorf("peer presented epoch %d, want %d (stale generation?)", ph.Epoch, cfg.Epoch)
		case ph.P != cfg.P:
			return fmt.Errorf("peer presented p=%d, want %d", ph.P, cfg.P)
		case wantRank >= 0 && ph.Rank != wantRank:
			return fmt.Errorf("peer presented rank %d, want %d", ph.Rank, wantRank)
		}
		return nil
	}
	for j := 0; j < cfg.Rank; j++ {
		c, err := net.DialTimeout("tcp", book[j], time.Until(deadline))
		if err != nil {
			return conns, fmt.Errorf("cluster: rank %d dial rank %d at %s: %w", cfg.Rank, j, book[j], err)
		}
		c.SetDeadline(deadline)
		if err := wire.WriteHandshake(c, hs); err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d handshake with rank %d: %w", cfg.Rank, j, err)
		}
		ph, err := wire.ReadHandshake(c)
		if err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d handshake with rank %d: %w", cfg.Rank, j, err)
		}
		if err := checkPeer(ph, j); err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d data handshake with rank %d: %w", cfg.Rank, j, err)
		}
		c.SetDeadline(time.Time{})
		conns[j] = c
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for need := cfg.P - 1 - cfg.Rank; need > 0; need-- {
		c, err := ln.Accept()
		if err != nil {
			return conns, fmt.Errorf("cluster: rank %d accepting data connections: %w", cfg.Rank, err)
		}
		c.SetDeadline(deadline)
		ph, err := wire.ReadHandshake(c)
		if err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d reading a data handshake: %w", cfg.Rank, err)
		}
		if err := checkPeer(ph, -1); err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d data handshake: %w", cfg.Rank, err)
		}
		if ph.Rank <= cfg.Rank || ph.Rank >= cfg.P {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d: unexpected data connection from rank %d", cfg.Rank, ph.Rank)
		}
		if conns[ph.Rank] != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d: duplicate data connection from rank %d", cfg.Rank, ph.Rank)
		}
		if err := wire.WriteHandshake(c, hs); err != nil {
			c.Close()
			return conns, fmt.Errorf("cluster: rank %d handshake with rank %d: %w", cfg.Rank, ph.Rank, err)
		}
		c.SetDeadline(time.Time{})
		conns[ph.Rank] = c
	}
	return conns, nil
}

// ClusterTransport is the registry's "cluster" transport: the
// multi-process TCP machine of the paper's Appendix B.3 PC LAN,
// refactored so rank membership lives in a coordinator rather than in
// the exchange path. In-process Open runs the complete protocol — a
// coordinator plus p concurrent JoinCluster members over real loopback
// sockets with handshake frames on both planes — so the conformance,
// chaos and recovery matrices exercise the cluster code paths without
// spawning processes. Rank-per-OS-process deployments use the same
// pieces directly: a Coordinator (owned by the launcher, see
// internal/launch) and one JoinCluster (via ClusterMember) per child.
type ClusterTransport struct {
	// JoinTimeout bounds gang assembly (see CoordinatorOptions).
	JoinTimeout time.Duration

	// stageTimeout and wrapConn are the test seams of TCPTransport.
	stageTimeout time.Duration
	wrapConn     func(local, peer int, c net.Conn) net.Conn
}

// Name implements Transport.
func (ClusterTransport) Name() string { return "cluster" }

// Open implements Transport.
func (t ClusterTransport) Open(p int) ([]Endpoint, error) {
	return t.OpenGroup(p, GroupOptions{JobID: "cluster-local"})
}

// OpenGroup implements GroupTransport.
func (t ClusterTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: p must be >= 1, got %d", p)
	}
	coord, err := StartCoordinator(p, CoordinatorOptions{
		JobID:       opts.JobID,
		Epoch:       opts.Epoch,
		JoinTimeout: t.JoinTimeout,
		closeOnIdle: true,
	})
	if err != nil {
		return nil, err
	}
	eps := make([]Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = JoinCluster(ClusterConfig{
				Coordinator:  coord.Addr(),
				JobID:        opts.JobID,
				Rank:         i,
				Epoch:        opts.Epoch,
				P:            p,
				JoinTimeout:  t.JoinTimeout,
				stageTimeout: t.stageTimeout,
				wrapConn:     t.wrapConn,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Abort()
					ep.Close()
				}
			}
			coord.Close()
			return nil, fmt.Errorf("cluster: open: %w (rank %d)", err, i)
		}
	}
	return eps, nil
}

// ClusterMember adapts one rank's cluster membership to the Transport
// interface for a process that hosts exactly that rank (a bsprun
// -cluster worker or a test child). Open(p) validates the width and
// returns a single endpoint: core then runs just this rank's process
// function. It also implements GroupTransport: OpenGroup joins with
// the options' job id and epoch, which is what lets a surviving
// process rejoin the gang at a bumped epoch on an in-process recovery
// attempt (warm recovery) instead of exiting for a full relaunch.
//
// The config's hard chaos faults (crash, abort) fire at most once per
// member, however many times it is opened: a warm recovery attempt
// re-opens the transport in the same process and must not re-fire the
// fault that caused it.
type ClusterMember struct {
	cfg        ClusterConfig
	hardFaults atomic.Bool
}

// NewClusterMember builds the member transport for one rank process.
func NewClusterMember(cfg ClusterConfig) *ClusterMember {
	return &ClusterMember{cfg: cfg}
}

// Name implements Transport.
func (*ClusterMember) Name() string { return "cluster-member" }

// Open implements Transport. The returned slice holds one endpoint —
// this process's rank.
func (m *ClusterMember) Open(p int) ([]Endpoint, error) {
	return m.open(p, m.cfg.JobID, m.cfg.Epoch)
}

// OpenGroup implements GroupTransport: when opts carry a job id, they
// override the configured identity — core's recovery loop bumps the
// epoch per attempt, and this is where the bumped epoch reaches the
// rejoin handshake.
func (m *ClusterMember) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	job, epoch := m.cfg.JobID, m.cfg.Epoch
	if opts.JobID != "" {
		job, epoch = opts.JobID, opts.Epoch
	}
	return m.open(p, job, epoch)
}

func (m *ClusterMember) open(p int, job string, epoch int) ([]Endpoint, error) {
	if p != m.cfg.P {
		return nil, fmt.Errorf("cluster: member configured for p=%d opened with p=%d", m.cfg.P, p)
	}
	cfg := m.cfg
	cfg.JobID, cfg.Epoch = job, epoch
	if cfg.Chaos != nil && !m.hardFaults.CompareAndSwap(false, true) {
		plan := *cfg.Chaos
		plan.CrashStep, plan.AbortStep = 0, 0
		cfg.Chaos = &plan
		cfg.ChaosCrash = false
	}
	ep, err := JoinCluster(cfg)
	if err != nil {
		return nil, err
	}
	return []Endpoint{ep}, nil
}
