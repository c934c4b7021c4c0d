package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// This file implements the first out-of-process ProcessGroup: the
// "cluster" transport, where each rank is its own OS process — the
// deployment shape of the paper's Appendix B.3 PC LAN machine. The
// pieces:
//
//   - Coordinator: owns membership for one job. Ranks join over a TCP
//     control connection with a wire.Handshake frame (magic, job id,
//     rank, epoch, p); when all p ranks of the current epoch have
//     joined, the coordinator broadcasts the peer address book — the
//     readiness barrier. Afterwards it relays abort and leave events,
//     and converts a control connection dropped without a leave into a
//     gang-wide abort (crash fan-out).
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

// Control frame tags, coordinator <-> member. Every control frame is a
// [u32 length][payload] wire frame whose first payload byte is the tag.
const (
	ctrlBook      = 'B' // coordinator -> member: p peer data addresses
	ctrlReject    = 'R' // coordinator -> member: join rejected, reason follows
	ctrlAbort     = 'X' // either direction: gang abort, reason follows
	ctrlLeave     = 'L' // member -> coordinator: clean detach; broadcast back with rank
	ctrlPing      = 'H' // either direction: liveness heartbeat (wire.Heartbeat payload)
	ctrlCrash     = 'C' // coordinator -> member: crashed rank + new epoch + reason
	ctrlDump      = 'D' // coordinator -> member: write a postmortem dump, reason follows
	ctrlTelemetry = 'T' // member -> coordinator: delta-encoded metrics snapshot (wire.Telemetry payload)
)

// ctrlFrameLimit bounds control frames (the address book dominates:
// ~32 bytes per rank).
const ctrlFrameLimit = 1 << 20

const (
	clusterDefaultJoinTimeout = 30 * time.Second
	// ctrlWriteTimeout bounds coordinator broadcast writes so one wedged
	// member cannot stall the fan-out to the others.
	ctrlWriteTimeout = 5 * time.Second
	// settleTimeout is how long a cluster member waits, after a
	// data-plane error, for the membership event (abort or leave
	// broadcast) that explains it; on the loopback control plane the
	// notification beats this by orders of magnitude.
	settleTimeout = 2 * time.Second
	// clusterDefaultHeartbeatInterval is the default liveness beat
	// period on the control plane.
	clusterDefaultHeartbeatInterval = 500 * time.Millisecond
	// clusterDefaultSuspectAfter is the default suspicion timeout: a
	// ready member silent for this long is declared crashed. Generous
	// relative to the beat interval so scheduler hiccups and paused
	// test processes are not convicted.
	clusterDefaultSuspectAfter = 5 * time.Second
)

func writeCtrlFrame(c net.Conn, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	c.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	defer c.SetWriteDeadline(time.Time{})
	if _, err := c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.Write(payload)
	return err
}

func readCtrlFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > ctrlFrameLimit {
		return nil, fmt.Errorf("cluster: control frame of %d bytes out of range", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// CoordinatorOptions configure a cluster job's membership service.
type CoordinatorOptions struct {
	// JobID names the job; handshakes with any other id are rejected.
	JobID string
	// Epoch is the starting gang generation (see GroupOptions.Epoch).
	Epoch int
	// JoinTimeout bounds how long a gang generation may stay incomplete
	// after its first rank joins: when it fires, every joined rank is
	// rejected with an error naming the missing rank(s). It also bounds
	// the handshake read on each new control connection, so a peer that
	// connects but never completes the handshake cannot park forever.
	// 0 means clusterDefaultJoinTimeout.
	JoinTimeout time.Duration

	// HeartbeatInterval is the liveness beat period once a generation
	// is ready: the coordinator beats every member and expects beats
	// back. 0 means clusterDefaultHeartbeatInterval; negative disables
	// the liveness protocol entirely.
	HeartbeatInterval time.Duration
	// SuspectAfter is the suspicion timeout: a ready member whose last
	// control frame (beat or otherwise) is older than this is declared
	// crashed and fanned out to the gang, long before any sync
	// watchdog. 0 means clusterDefaultSuspectAfter; negative disables
	// suspicion (beats still flow for member-side miss accounting).
	SuspectAfter time.Duration
	// OnCrash, when set, is called (on its own goroutine) once per
	// crash declaration: rank was convicted, failedEpoch died, and the
	// survivors rejoin at newEpoch. A warm launcher uses it to relaunch
	// exactly the convicted rank's process.
	OnCrash func(rank, failedEpoch, newEpoch int, reason string)

	// StatusAddr, when set, serves the aggregated live-telemetry plane
	// over HTTP: /status (job-level JSON: per-rank last superstep,
	// live/suspect state, the online (g, L) fit) and /metrics (rank-
	// labeled Prometheus families — one scrape target for the whole
	// job). Member telemetry frames feed it; without any, the document
	// shows every rank silent. ":0" binds an ephemeral port (see
	// Coordinator.StatusURL).
	StatusAddr string

	// closeOnIdle shuts the coordinator down once a ready generation's
	// members have all disconnected (the in-process ClusterTransport
	// sets it; a launcher that relaunches generations keeps it off).
	closeOnIdle bool
}

func (o CoordinatorOptions) joinTimeout() time.Duration {
	if o.JoinTimeout > 0 {
		return o.JoinTimeout
	}
	return clusterDefaultJoinTimeout
}

func (o CoordinatorOptions) heartbeatInterval() time.Duration {
	if o.HeartbeatInterval > 0 {
		return o.HeartbeatInterval
	}
	if o.HeartbeatInterval < 0 {
		return 0
	}
	return clusterDefaultHeartbeatInterval
}

func (o CoordinatorOptions) suspectAfter() time.Duration {
	if o.SuspectAfter > 0 {
		return o.SuspectAfter
	}
	if o.SuspectAfter < 0 {
		return 0
	}
	return clusterDefaultSuspectAfter
}

// Coordinator is the membership owner of one cluster job: it admits
// ranks epoch by epoch, broadcasts the address book when a generation
// is complete, relays abort/leave events, and fences handshakes from
// the wrong job, a stale epoch, an out-of-range or duplicate rank.
type Coordinator struct {
	p    int
	opts CoordinatorOptions
	ln   net.Listener

	// telem aggregates member telemetry frames into the job-level live
	// view; always non-nil, and deliberately coordinator-scoped (not
	// generation-scoped) so the view survives warm restarts.
	telem     *telemetryAgg
	statusLn  net.Listener
	statusSrv *http.Server

	mu     sync.Mutex
	epoch  int
	gen    *coordGen
	closed bool
}

// coordGen is one gang generation: the ranks joined at the current
// epoch.
type coordGen struct {
	epoch   int
	members map[int]*coordMember
	ready   bool
	aborted bool
	live    int // member control conns still connected
	timer   *time.Timer
}

type coordMember struct {
	rank int
	conn net.Conn
	addr string
	left bool
	// lastBeat is the unix-nano time of the member's last control
	// frame; the liveness loop convicts members whose lastBeat ages
	// past SuspectAfter. Atomic: monitor goroutines store, the
	// liveness goroutine loads.
	lastBeat atomic.Int64
}

// StartCoordinator listens on a loopback port and serves membership for
// one job of p ranks.
func StartCoordinator(p int, opts CoordinatorOptions) (*Coordinator, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: p must be >= 1, got %d", p)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	c := &Coordinator{p: p, opts: opts, ln: ln, epoch: opts.Epoch, telem: newTelemetryAgg(p)}
	if opts.StatusAddr != "" {
		if err := c.startStatusServer(opts.StatusAddr); err != nil {
			ln.Close()
			return nil, err
		}
	}
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's control address for ClusterConfig.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch returns the generation currently being admitted.
func (c *Coordinator) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// AdvanceEpoch starts the next gang generation (a recovery relaunch):
// handshakes carrying the previous epoch are rejected from now on, so a
// straggler process of the crashed generation cannot rejoin the new
// gang. It returns the new epoch.
func (c *Coordinator) AdvanceEpoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	if c.gen != nil && c.gen.timer != nil {
		c.gen.timer.Stop()
	}
	c.gen = nil
	return c.epoch
}

// FenceWait bounds how long a launcher waits for the coordinator to
// fence a generation one of whose processes has died before falling
// back to AdvanceEpoch: the slowest detection source (liveness
// suspicion) plus scheduling slack.
func (c *Coordinator) FenceWait() time.Duration {
	suspect := c.opts.SuspectAfter
	if suspect <= 0 {
		suspect = clusterDefaultSuspectAfter
	}
	return suspect + 2*time.Second
}

// Close shuts the coordinator down, disconnecting any joined members.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	gen := c.gen
	c.mu.Unlock()
	if c.statusSrv != nil {
		c.statusSrv.Close()
	}
	err := c.ln.Close()
	if gen != nil {
		for _, m := range gen.members {
			m.conn.Close()
		}
	}
	return err
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handleJoin(conn)
	}
}

// handleJoin validates one joining rank's handshake and admits it into
// the current generation. Invalid handshakes are rejected with a frame
// naming the cause; a connection that never completes the handshake is
// dropped when its read deadline fires (and, if a generation is
// waiting on that rank, the generation's join timer names it).
func (c *Coordinator) handleJoin(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(c.opts.joinTimeout()))
	hs, err := wire.ReadHandshake(conn)
	if err != nil {
		conn.Close()
		return
	}
	addrB, err := readCtrlFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	reject := func(reason string) {
		writeCtrlFrame(conn, append([]byte{ctrlReject}, reason...))
		conn.Close()
	}

	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		reject("coordinator closed")
		return
	case hs.JobID != c.opts.JobID:
		c.mu.Unlock()
		reject(fmt.Sprintf("wrong job id %q (this coordinator serves job %q)", hs.JobID, c.opts.JobID))
		return
	case hs.P != c.p:
		c.mu.Unlock()
		reject(fmt.Sprintf("p mismatch: handshake says %d ranks, job %q has %d", hs.P, c.opts.JobID, c.p))
		return
	case hs.Rank < 0 || hs.Rank >= c.p:
		c.mu.Unlock()
		reject(fmt.Sprintf("rank %d out of range [0,%d)", hs.Rank, c.p))
		return
	case hs.Epoch != c.epoch:
		cur := c.epoch
		c.mu.Unlock()
		if hs.Epoch < cur {
			reject(fmt.Sprintf("stale epoch %d: job %q is at epoch %d (a process from a previous generation must not rejoin; resume with the bumped epoch)", hs.Epoch, c.opts.JobID, cur))
		} else {
			reject(fmt.Sprintf("epoch %d not yet current: job %q is at epoch %d", hs.Epoch, c.opts.JobID, cur))
		}
		return
	}
	if c.gen == nil {
		gen := &coordGen{epoch: c.epoch, members: make(map[int]*coordMember)}
		epoch := c.epoch
		gen.timer = time.AfterFunc(c.opts.joinTimeout(), func() { c.joinTimedOut(epoch) })
		c.gen = gen
	}
	gen := c.gen
	if _, dup := gen.members[hs.Rank]; dup {
		c.mu.Unlock()
		reject(fmt.Sprintf("duplicate rank %d: already joined job %q epoch %d", hs.Rank, c.opts.JobID, c.epoch))
		return
	}
	m := &coordMember{rank: hs.Rank, conn: conn, addr: string(addrB)}
	gen.members[hs.Rank] = m
	gen.live++
	if len(gen.members) == c.p {
		// Readiness barrier: the generation is complete. Stop the join
		// timer, broadcast the address book, and start monitoring each
		// member for abort/leave/crash — plus the liveness loop that
		// beats the members and convicts the silent ones.
		gen.timer.Stop()
		book := c.bookLocked(gen)
		for _, mm := range gen.members {
			if err := writeCtrlFrame(mm.conn, book); err != nil {
				c.abortGenLocked(gen, fmt.Sprintf("rank %d unreachable during readiness broadcast: %v", mm.rank, err))
				break
			}
		}
		gen.ready = true
		now := time.Now().UnixNano()
		for _, mm := range gen.members {
			mm.lastBeat.Store(now)
			go c.monitor(gen, mm)
		}
		if c.opts.heartbeatInterval() > 0 {
			go c.liveness(gen)
		}
	}
	c.mu.Unlock()
}

// bookLocked renders the address book broadcast: tag, p, then one
// length-prefixed address per rank.
func (c *Coordinator) bookLocked(gen *coordGen) []byte {
	b := []byte{ctrlBook}
	b = binary.LittleEndian.AppendUint32(b, uint32(c.p))
	for r := 0; r < c.p; r++ {
		addr := gen.members[r].addr
		b = binary.LittleEndian.AppendUint32(b, uint32(len(addr)))
		b = append(b, addr...)
	}
	return b
}

// joinTimedOut fires when a generation stays incomplete past the join
// timeout: every joined rank is rejected with the missing rank(s)
// named — the silent peer is identified by its absence.
func (c *Coordinator) joinTimedOut(epoch int) {
	c.mu.Lock()
	gen := c.gen
	if gen == nil || gen.epoch != epoch || gen.ready {
		c.mu.Unlock()
		return
	}
	c.gen = nil
	c.mu.Unlock()
	var missing []int
	for r := 0; r < c.p; r++ {
		if _, ok := gen.members[r]; !ok {
			missing = append(missing, r)
		}
	}
	sort.Ints(missing)
	reason := fmt.Sprintf("cluster join timed out after %v: rank(s) %v never completed the handshake (job %q, epoch %d)",
		c.opts.joinTimeout(), missing, c.opts.JobID, epoch)
	for _, m := range gen.members {
		writeCtrlFrame(m.conn, append([]byte{ctrlReject}, reason...))
		m.conn.Close()
	}
}

// monitor serves one ready member's control connection: it relays
// aborts and leaves to the rest of the gang, feeds the liveness clock,
// and converts a connection dropped without a leave into a crash
// declaration naming this rank (the crash fan-out).
func (c *Coordinator) monitor(gen *coordGen, m *coordMember) {
	for {
		b, err := readCtrlFrame(m.conn)
		if err != nil {
			c.mu.Lock()
			if !m.left && !gen.aborted {
				c.declareCrashLocked(gen, m.rank, fmt.Sprintf("rank %d disconnected without leaving (crashed?)", m.rank))
			}
			gen.live--
			idle := gen.live == 0 && c.opts.closeOnIdle
			c.mu.Unlock()
			c.telem.disconnect(m.rank, m.left)
			m.conn.Close()
			if idle {
				c.Close()
			}
			return
		}
		// Any frame proves the member's process is alive.
		m.lastBeat.Store(time.Now().UnixNano())
		switch b[0] {
		case ctrlTelemetry:
			c.telem.ingest(m.rank, b[1:])
		case ctrlPing:
			// Echo the beat back verbatim: the member recognizes its own
			// rank in the payload and measures the control-plane round
			// trip from it. Serialized under c.mu like every coordinator
			// write; beyond the echo (and the liveness clock update
			// above) a beat carries nothing the coordinator acts on.
			c.mu.Lock()
			if !gen.aborted && !m.left {
				writeCtrlFrame(m.conn, b)
			}
			c.mu.Unlock()
		case ctrlAbort:
			c.mu.Lock()
			c.abortGenLocked(gen, fmt.Sprintf("rank %d aborted: %s", m.rank, b[1:]))
			c.mu.Unlock()
		case ctrlLeave:
			c.mu.Lock()
			m.left = true
			note := []byte{ctrlLeave, 0, 0, 0, 0}
			binary.LittleEndian.PutUint32(note[1:], uint32(m.rank))
			for _, mm := range gen.members {
				if mm != m && !mm.left {
					writeCtrlFrame(mm.conn, note)
				}
			}
			c.mu.Unlock()
		}
	}
}

// liveness is the per-generation suspicion loop: every interval it
// beats each connected member and checks when each member last spoke.
// A member silent past SuspectAfter is convicted — declared crashed to
// the whole gang — which is what turns a hung-but-connected process
// into a prompt ErrCrashed instead of a sync-watchdog timeout much
// later. The loop ends when the generation fails, completes (all
// members leave) or the coordinator closes.
func (c *Coordinator) liveness(gen *coordGen) {
	interval := c.opts.heartbeatInterval()
	suspect := c.opts.suspectAfter()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq uint32
	for range tick.C {
		seq++
		beat := append([]byte{ctrlPing}, wire.Heartbeat{Rank: wire.CoordinatorRank, Epoch: gen.epoch, Seq: seq}.EncodePayload()...)
		c.mu.Lock()
		if gen.aborted || c.closed {
			c.mu.Unlock()
			return
		}
		now := time.Now().UnixNano()
		alive := false
		var suspected *coordMember
		for _, m := range gen.members {
			if m.left {
				continue
			}
			alive = true
			writeCtrlFrame(m.conn, beat)
			if suspect > 0 && suspected == nil && now-m.lastBeat.Load() > int64(suspect) {
				suspected = m
			}
		}
		if suspected != nil {
			c.declareCrashLocked(gen, suspected.rank, fmt.Sprintf(
				"rank %d sent no heartbeat for %v (suspect after %v): declared crashed",
				suspected.rank, time.Duration(now-suspected.lastBeat.Load()).Round(time.Millisecond), suspect))
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		if !alive {
			return
		}
	}
}

// abortGenLocked fails the generation with a cooperative abort: no
// rank is convicted, members see a plain gang abort.
func (c *Coordinator) abortGenLocked(gen *coordGen, reason string) {
	c.failGenLocked(gen, -1, reason)
}

// declareCrashLocked fails the generation with a crash declaration
// convicting rank: members receive a ctrlCrash frame naming the rank
// and the epoch survivors rejoin at, and the launcher's OnCrash hook
// (if any) fires so it can relaunch exactly that process.
func (c *Coordinator) declareCrashLocked(gen *coordGen, rank int, reason string) {
	c.failGenLocked(gen, rank, reason)
}

// failGenLocked ends a generation exactly once: it fences the dead
// epoch (the coordinator advances, so stragglers of this generation
// are rejected at the handshake while survivors rejoin at the next
// epoch without launcher involvement) and broadcasts either a crash
// declaration (crashedRank >= 0) or a cooperative abort.
func (c *Coordinator) failGenLocked(gen *coordGen, crashedRank int, reason string) {
	if gen.aborted {
		return
	}
	gen.aborted = true
	if gen == c.gen {
		c.epoch++
		if gen.timer != nil {
			gen.timer.Stop()
		}
		c.gen = nil
	}
	// Ask every member to persist its flight ring before the failure
	// frame lands: survivors dump their view of the dead generation
	// too, not just the rank whose process noticed first. Members that
	// already died simply never read the frame.
	dump := append([]byte{ctrlDump}, reason...)
	for _, m := range gen.members {
		if !m.left {
			writeCtrlFrame(m.conn, dump)
		}
	}
	var frame []byte
	if crashedRank >= 0 {
		frame = make([]byte, 9, 9+len(reason))
		frame[0] = ctrlCrash
		binary.LittleEndian.PutUint32(frame[1:5], uint32(crashedRank))
		binary.LittleEndian.PutUint32(frame[5:9], uint32(c.epoch))
		frame = append(frame, reason...)
	} else {
		frame = append([]byte{ctrlAbort}, reason...)
	}
	for _, m := range gen.members {
		if !m.left {
			writeCtrlFrame(m.conn, frame)
		}
	}
	if crashedRank >= 0 {
		c.telem.convict(crashedRank, reason)
	}
	if cb := c.opts.OnCrash; cb != nil && crashedRank >= 0 {
		go cb(crashedRank, gen.epoch, c.epoch, reason)
	}
}

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
	// the cluster defaults; negative disables.
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// Telemetry arms the live metrics push loop (see TelemetryConfig).
	// Off by default: only launchers that serve a status plane pay for
	// the frames.
	Telemetry TelemetryConfig
	// StageTimeout and MaxRetries tune the staged exchange engine
	// exactly as on TCPTransport.
	StageTimeout time.Duration
	MaxRetries   int
	// Chaos, when non-nil, wraps this rank's endpoint (and, when the
	// plan injects connection faults, its data connections) in the
	// fault plan; ChaosCrash additionally arms the plan's one-shot
	// crash fault in this process. A child process uses this instead of
	// ChaosTransport, which wraps whole in-process machines.
	Chaos      *FaultPlan
	ChaosCrash bool

	// wrapConn lets the in-process ClusterTransport thread the chaos
	// connection decorator through JoinCluster.
	wrapConn func(local, peer int, c net.Conn) net.Conn
}

func (cfg ClusterConfig) joinTimeout() time.Duration {
	if cfg.JoinTimeout > 0 {
		return cfg.JoinTimeout
	}
	return clusterDefaultJoinTimeout
}

func (cfg ClusterConfig) heartbeatInterval() time.Duration {
	return CoordinatorOptions{HeartbeatInterval: cfg.HeartbeatInterval}.heartbeatInterval()
}

func (cfg ClusterConfig) suspectAfter() time.Duration {
	return CoordinatorOptions{SuspectAfter: cfg.SuspectAfter}.suspectAfter()
}

// clusterMember is the out-of-process GroupMember: the shared groupCore
// driven by coordinator control frames. Abort and Leave notify the
// coordinator; the control reader applies remote aborts, leaves and
// crash declarations to the local core (flag first, then hooks, so an
// exchange woken by a dying socket always sees the flag), and a
// heartbeat loop proves this process's liveness to the coordinator.
type clusterMember struct {
	core     *groupCore
	rank     int
	ctrl     net.Conn
	ctrlWMu  sync.Mutex
	leftSelf atomic.Bool

	// crashCause holds the first crash declaration received; the
	// exchange engine surfaces it (via abortCauser) instead of the
	// anonymous ErrAborted.
	crashCause atomic.Pointer[CrashError]
	// buf is the rank's trace buffer once core installs it; only its
	// atomic Metrics methods are used here (the heartbeat and control
	// goroutines are not the rank goroutine).
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
	// broadcasts a ctrlDump frame. Stored as func(string) (the reason).
	dumpFn atomic.Value
	// hbStop ends the heartbeat loop; stopping it while staying
	// connected is exactly what a stalled process looks like, which
	// the suspicion tests exploit.
	hbStop     chan struct{}
	hbStopOnce sync.Once

	// Telemetry push state (telemetry.go): tmMu serializes the
	// interval pushes with the final flush in Leave; the snapshot,
	// encoder and frame buffers are reused across pushes.
	tmArmed atomic.Bool
	tmAddr  string
	tmMu    sync.Mutex
	tmSnap  wire.Telemetry
	tmEnc   wire.TelemetryEncoder
	tmFrame []byte
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
		m.sendCtrl(append([]byte{ctrlAbort}, "local abort"...))
	}
}

// Leave detaches this rank: the coordinator broadcasts the departure.
// The hosting process owns exactly one member, so Leave always reports
// last == true (the endpoint then tears down this process's sockets).
func (m *clusterMember) Leave() (last bool) {
	// Flush the final telemetry state first (the ordered control
	// connection delivers it before the leave), so the coordinator's
	// job view is complete even for runs shorter than one interval.
	if m.tmArmed.Load() {
		m.pushTelemetry()
	}
	m.leftSelf.Store(true)
	m.stopHeartbeats()
	m.sendCtrl([]byte{ctrlLeave})
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

// heartbeatLoop proves this process's liveness to the coordinator and
// accounts for the coordinator's beats in return. A coordinator silent
// past the suspicion timeout means the membership service (and the
// launcher that owns it) is gone: the gang cannot maintain membership,
// so the member aborts rather than hang in a later exchange.
func (m *clusterMember) heartbeatLoop(interval, suspect time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq uint32
	for {
		select {
		case <-m.hbStop:
			return
		case <-m.core.abortCh:
			return
		case <-tick.C:
		}
		seq++
		hb := wire.Heartbeat{Rank: m.rank, Epoch: m.core.opts.Epoch, Seq: seq}
		m.hbSentSeq.Store(int64(seq))
		m.hbSentAt.Store(time.Now().UnixNano())
		m.sendCtrl(append([]byte{ctrlPing}, hb.EncodePayload()...))
		m.buf.Load().Heartbeat(int(seq), m.core.opts.Epoch)
		if last := m.coordBeat.Load(); last > 0 {
			gap := time.Now().UnixNano() - last
			if gap > 2*int64(interval) {
				m.buf.Load().HeartbeatMiss()
			}
			if suspect > 0 && gap > int64(suspect) {
				m.core.abort()
				return
			}
		}
	}
}

func (m *clusterMember) sendCtrl(frame []byte) {
	m.ctrlWMu.Lock()
	defer m.ctrlWMu.Unlock()
	writeCtrlFrame(m.ctrl, frame)
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
	for {
		b, err := readCtrlFrame(m.ctrl)
		if err != nil {
			if !m.leftSelf.Load() {
				m.core.abort()
			}
			return
		}
		m.coordBeat.Store(time.Now().UnixNano())
		switch b[0] {
		case ctrlPing:
			// Two flavors arrive under this tag: the coordinator's own
			// periodic beat (Rank == CoordinatorRank; the liveness clock
			// update above is its whole effect) and the echo of this
			// member's newest beat, which closes the round trip the
			// heartbeat loop opened.
			if hb, err := wire.DecodeHeartbeatPayload(b[1:]); err == nil && hb.Rank == m.rank {
				if int64(hb.Seq) == m.hbSentSeq.Load() {
					if at := m.hbSentAt.Load(); at > 0 {
						m.buf.Load().HeartbeatRTT(int(hb.Seq), time.Now().UnixNano()-at)
					}
				}
			}
		case ctrlDump:
			// The coordinator failed the generation and wants every
			// member's forensics. Synchronous on purpose: the dump
			// completes before the crash/abort frame behind it is read,
			// so the ring still shows the moment of death.
			if fn, ok := m.dumpFn.Load().(func(string)); ok && fn != nil {
				fn(string(b[1:]))
			}
		case ctrlAbort:
			m.core.abort()
		case ctrlCrash:
			if len(b) >= 9 {
				crashed := int(binary.LittleEndian.Uint32(b[1:5]))
				newEpoch := int(binary.LittleEndian.Uint32(b[5:9]))
				m.crashCause.CompareAndSwap(nil, &CrashError{
					JobID:    m.core.opts.JobID,
					Rank:     crashed,
					Epoch:    m.core.opts.Epoch,
					NewEpoch: newEpoch,
					Reason:   string(b[9:]),
				})
				if crashed != m.rank {
					m.buf.Load().WarmRestart()
				}
			}
			m.core.abort()
		case ctrlLeave:
			if len(b) == 5 {
				if r := int(binary.LittleEndian.Uint32(b[1:])); r >= 0 && r < m.core.p {
					m.core.markLeft(r)
				}
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
	deadline := time.Now().Add(cfg.joinTimeout())
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
	ctrl.SetDeadline(deadline)
	if err := wire.WriteHandshake(ctrl, hs); err != nil {
		return fail(fmt.Errorf("cluster: rank %d handshake: %w", cfg.Rank, err))
	}
	if err := writeCtrlFrame(ctrl, []byte(ln.Addr().String())); err != nil {
		return fail(fmt.Errorf("cluster: rank %d handshake: %w", cfg.Rank, err))
	}
	reply, err := readCtrlFrame(ctrl)
	if err != nil {
		return fail(fmt.Errorf("cluster: rank %d waiting for the gang to assemble: %w", cfg.Rank, err))
	}
	switch reply[0] {
	case ctrlReject:
		return fail(fmt.Errorf("cluster: rank %d join rejected: %s", cfg.Rank, reply[1:]))
	case ctrlBook:
	default:
		return fail(fmt.Errorf("cluster: rank %d: unexpected control frame %q before readiness", cfg.Rank, reply[0]))
	}
	ctrl.SetDeadline(time.Time{})
	book, err := parseBook(reply, cfg.P)
	if err != nil {
		return fail(fmt.Errorf("cluster: rank %d: %w", cfg.Rank, err))
	}

	core := newGroupCore(cfg.P, GroupOptions{JobID: cfg.JobID, Epoch: cfg.Epoch})
	m := &clusterMember{core: core, rank: cfg.Rank, ctrl: ctrl, hbStop: make(chan struct{})}
	m.coordBeat.Store(time.Now().UnixNano())
	go m.readControl()
	if interval := cfg.heartbeatInterval(); interval > 0 {
		go m.heartbeatLoop(interval, cfg.suspectAfter())
	}
	if cfg.Telemetry.Interval > 0 {
		m.startTelemetry(cfg.Telemetry)
	}

	wrap := cfg.wrapConn
	if wrap == nil && cfg.Chaos != nil && cfg.Chaos.ConnErrRate > 0 {
		wrap = chaosWrapConn(*cfg.Chaos)
	}
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
		ctrl.Close()
		return nil, err
	}

	tt := TCPTransport{StageTimeout: cfg.StageTimeout, MaxRetries: cfg.MaxRetries}
	st := &tcpState{
		p:        cfg.P,
		sched:    NewPairSchedule(cfg.P),
		timeout:  tt.stageTimeout(),
		retries:  tt.maxRetries(),
		wrapConn: wrap,
	}
	e := newTCPEndpoint(st, m, cfg.Rank)
	for peer, c := range conns {
		if c != nil {
			e.setConn(peer, c)
		}
	}
	st.setTeardown(func() {
		e.closeConns()
		ctrl.Close()
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

// parseBook decodes the coordinator's address-book broadcast.
func parseBook(b []byte, p int) ([]string, error) {
	b = b[1:]
	if len(b) < 4 {
		return nil, errors.New("short address book")
	}
	if n := int(binary.LittleEndian.Uint32(b)); n != p {
		return nil, fmt.Errorf("address book for %d ranks, want %d", n, p)
	}
	b = b[4:]
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		if len(b) < 4 {
			return nil, errors.New("truncated address book")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return nil, errors.New("truncated address book")
		}
		addrs[r] = string(b[:n])
		b = b[n:]
	}
	return addrs, nil
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
	// StageTimeout and MaxRetries tune the staged exchange engine, as
	// on TCPTransport.
	StageTimeout time.Duration
	MaxRetries   int
	// JoinTimeout bounds gang assembly (see CoordinatorOptions).
	JoinTimeout time.Duration

	// wrapConn is ChaosTransport's connection decorator.
	wrapConn func(local, peer int, c net.Conn) net.Conn
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
				StageTimeout: t.StageTimeout,
				MaxRetries:   t.MaxRetries,
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

// chaosWrapConn builds the ChaosTransport connection decorator for a
// fault plan (shared by the tcp and cluster wrapping paths).
func chaosWrapConn(plan FaultPlan) func(local, peer int, c net.Conn) net.Conn {
	return func(local, peer int, c net.Conn) net.Conn {
		seed := plan.Seed ^ int64(local*1_000_003+peer+1)
		return &chaosConn{Conn: c, rng: rand.New(rand.NewSource(seed)), rate: plan.ConnErrRate}
	}
}
