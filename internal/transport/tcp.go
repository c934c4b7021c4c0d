package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// TCPTransport is the TCP implementation of the library (paper, Appendix
// B.3): per-pair connections, communication only at superstep boundaries,
// and a precomputed (p-1)-stage total-exchange pairing schedule. "The
// blocking TCP protocol that we employ requires receivers to actively
// empty the pipe whenever another process sends a large amount of data,
// so deadlock could occur if we are not careful in scheduling the
// communication."
//
// The original ran on eight Pentium PCs behind a 100-Mbit Ethernet
// switch; here every process is a goroutine and the pairs exchange over
// real kernel TCP sockets on the loopback interface (DESIGN.md §2). For
// the rank-per-OS-process deployment shape of the paper's PC LAN, see
// ClusterTransport, whose members are endpoints of this transport.
//
// A superstep's exchange runs in two phases over one wire format. First
// every batch of at most eagerLimit bytes (empty ones included) is
// posted up front, header and body in one write — the paper's MPI
// schedule (Appendix B.2: post every send, then collect every receive,
// and let the exchange be the barrier). A peer can run at most one
// superstep ahead, so at most two such batches are ever unread per
// direction per connection, far below the kernel's socket buffering:
// the posts do not block and a superstep of small batches costs one
// blocking wake-up instead of 2(p-1). Then the B.3 staged schedule runs
// for what remains: within a stage the lower-ranked process of a pair
// streams its large batch first while the higher-ranked process drains
// it, then the roles swap — so large batches never depend on socket
// buffering. A receiver just reads [round][length] and a body of
// whatever size arrives, so mixed and asymmetric pairs need no
// negotiation (DESIGN.md §5).
//
// No stream buffer sits between socket and Inbox: the receiver reads
// header and body straight into one pooled buffer shaped like the
// sender's, which the Inbox serves in place — a first read of at most
// firstReadLimit bytes, then one exact read of the rest. Bytes read past
// a batch start the peer's next one (a peer runs at most one superstep
// ahead) and are carried to the next read from that peer.
//
// Every connect, read and write carries a per-operation deadline, and
// a failed one fails the superstep — as in the paper's library, there
// is no retry. A peer that stays silent past the deadline therefore
// surfaces as an error naming the pair and superstep instead of a hang.
// Reads and writes re-arm their deadline lazily (see stageConn): each
// starts with between one and one and a half deadlines left, so a
// silent peer fails it within [deadline, 2·deadline).
type TCPTransport struct {
	// stageTimeout bounds each individual connect, read and write; a
	// peer silent for longer fails the operation with a timeout error.
	// 0 means tcpDefaultStageTimeout. This is a per-operation liveness
	// bound, not a superstep budget — core Config.SyncTimeout bounds
	// whole supersteps. Tests shorten it.
	stageTimeout time.Duration

	// wrapConn, when set, decorates each connection beneath the
	// deadline every batch read and write goes through; tests use it to
	// substitute fragmenting, gated or logging conns.
	wrapConn func(local, peer int, c net.Conn) net.Conn
}

// Name implements Transport.
func (TCPTransport) Name() string { return "tcp" }

// tcpFrameLimit guards against corrupt length prefixes.
const tcpFrameLimit = 1 << 30

// batchHdrLen is the [round u32][byte length u32] header in front of
// every per-pair batch on the wire. Send reserves it at the front of
// each outgoing buffer, so header and body leave in a single write.
const batchHdrLen = 8

// eagerLimit is the largest batch body posted eagerly at Sync entry;
// larger batches wait for their stage of the pairing schedule.
const eagerLimit = batchCap

// firstReadLimit bounds a batch's first read, which takes the header
// and whatever has already arrived; it also bounds the bytes carried
// past a batch.
const firstReadLimit = 64 << 10

// tcpDefaultStageTimeout is the per-operation deadline. It only has to
// beat "forever", and must outlast any silence a healthy run shows: a
// peer in a long compute phase, or behind a network partition that
// heals (DESIGN.md §5).
const tcpDefaultStageTimeout = 8 * time.Minute

// Open implements Transport.
func (t TCPTransport) Open(p int) ([]Endpoint, error) {
	return t.OpenGroup(p, GroupOptions{})
}

// OpenGroup implements GroupTransport: the staged exchange engine
// composes with an in-process group. The group's abort hook closes
// every socket so peers stuck in blocking reads or writes unblock; the
// last member to leave tears the sockets down.
func (t TCPTransport) OpenGroup(p int, opts GroupOptions) ([]Endpoint, error) {
	if p < 1 {
		return nil, fmt.Errorf("tcp: p must be >= 1, got %d", p)
	}
	g, err := NewLocalGroup(p, opts)
	if err != nil {
		return nil, err
	}
	st := &tcpState{
		p:        p,
		sched:    NewPairSchedule(p),
		timeout:  orDefault(t.stageTimeout, tcpDefaultStageTimeout),
		wrapConn: t.wrapConn,
	}
	eps := make([]Endpoint, p)
	tes := make([]*tcpEndpoint, p)
	for i := 0; i < p; i++ {
		m, err := g.Join(i)
		if err != nil {
			return nil, err
		}
		tes[i] = newTCPEndpoint(st, m, i)
		eps[i] = tes[i]
	}
	st.setTeardown(func() {
		for _, e := range tes {
			e.closeConns()
		}
	})
	// Abort fan-out: closing every connection unblocks peers stuck in
	// blocking reads or writes. One hook serves the whole machine; the
	// group runs it once.
	tes[0].m.OnAbort(st.runTeardown)
	if p == 1 {
		return eps, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: listen: %w", err)
	}
	defer ln.Close()
	// Connect every pair i<j: the "j side" dials, the "i side" accepts.
	// Dials and accepts are sequential, so they match up in order. The
	// channel is buffered so an accept goroutine can never block
	// forever if the dial side bails out first (the deferred ln.Close
	// fails its Accept).
	type acc struct {
		c   net.Conn
		err error
	}
	accCh := make(chan acc, 1)
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			go func() {
				c, err := ln.Accept()
				accCh <- acc{c, err}
			}()
			cj, err := net.DialTimeout("tcp", ln.Addr().String(), st.timeout)
			if err != nil {
				st.runTeardown()
				return nil, fmt.Errorf("tcp: dial for pair (%d,%d): %w", i, j, err)
			}
			a := <-accCh
			if a.err != nil {
				cj.Close()
				st.runTeardown()
				return nil, fmt.Errorf("tcp: accept for pair (%d,%d): %w", i, j, a.err)
			}
			tes[i].setConn(j, a.c)
			tes[j].setConn(i, cj)
		}
	}
	return eps, nil
}

// tcpState is the exchange-engine state shared by the endpoints of one
// process. It carries no membership: abort and leave flags live in the
// endpoints' group members. For the in-process transport one tcpState
// serves all p ranks; in a cluster process each rank's endpoint has its
// own (holding only that process's sockets).
type tcpState struct {
	p        int
	sched    *PairSchedule
	timeout  time.Duration
	wrapConn func(local, peer int, c net.Conn) net.Conn

	teardown     func()
	teardownOnce sync.Once
}

// setTeardown installs the socket-cleanup function, run at most once —
// from the group's abort hook or from the last local member's Close.
func (st *tcpState) setTeardown(fn func()) { st.teardown = fn }

func (st *tcpState) runTeardown() {
	if st.teardown == nil {
		return
	}
	st.teardownOnce.Do(st.teardown)
}

// stageConn keeps the per-operation deadline armed on a (possibly
// test-decorated) connection. Arming a socket deadline costs more than
// a superstep's empty exchange, so a read or write re-arms its
// direction only when less than timeout remains, to 1.5·timeout from
// now: an operation always starts with between timeout and 1.5·timeout
// left, so a silent peer fails it within [timeout, 2·timeout).
type stageConn struct {
	net.Conn
	timeout time.Duration
	// epoch is the monotonic origin of readBy and writeBy, the instants
	// (ns since epoch) each direction's deadline is armed to; 0 is
	// unarmed.
	epoch           time.Time
	readBy, writeBy int64
}

func newStageConn(c net.Conn, timeout time.Duration) *stageConn {
	return &stageConn{Conn: c, timeout: timeout, epoch: time.Now()}
}

// rearm reports whether the deadline armed to *by leaves less than
// timeout; if so it moves *by to 1.5·timeout from now and returns that
// instant.
func (c *stageConn) rearm(by *int64) (time.Time, bool) {
	now := int64(time.Since(c.epoch))
	if *by-now >= int64(c.timeout) {
		return time.Time{}, false
	}
	*by = now + int64(c.timeout)*3/2
	return c.epoch.Add(time.Duration(*by)), true
}

func (c *stageConn) Read(p []byte) (int, error) {
	if t, ok := c.rearm(&c.readBy); ok {
		c.Conn.SetReadDeadline(t)
	}
	return c.Conn.Read(p)
}

func (c *stageConn) Write(p []byte) (int, error) {
	if t, ok := c.rearm(&c.writeBy); ok {
		c.Conn.SetWriteDeadline(t)
	}
	return c.Conn.Write(p)
}

// failureSettler is implemented by group members whose abort and leave
// signals arrive asynchronously (the cluster's coordinator fan-out):
// after a data-plane error it blocks briefly for an in-flight signal,
// so a peer's crash or clean exit is reported as the membership event
// it is rather than as the raw socket error it caused.
type failureSettler interface {
	settleFailure(peer int)
}

type tcpEndpoint struct {
	exchange
	st     *tcpState
	conns  []net.Conn
	sc     []*stageConn // deadline-armed conns: one Write per batch, reads straight into batches
	posted []uint32     // per peer: the round whose batch was last written
	// carry holds, per peer, the bytes a first read took past its batch:
	// the front of that peer's next batch, in a pooled buffer.
	carry [][]byte
	hdr   [batchHdrLen]byte
}

func newTCPEndpoint(st *tcpState, m GroupMember, id int) *tcpEndpoint {
	e := &tcpEndpoint{
		st:     st,
		conns:  make([]net.Conn, st.p),
		sc:     make([]*stageConn, st.p),
		posted: make([]uint32, st.p),
		carry:  make([][]byte, st.p),
	}
	e.init(e, "tcp", m, id, st.p)
	e.reserve = batchHdrLen
	return e
}

// SetTrace implements TraceSetter. A cluster member also keeps the
// buf, so its heartbeat loop can bump the liveness counters.
func (e *tcpEndpoint) SetTrace(b *trace.Buf) {
	e.exchange.SetTrace(b)
	if ts, ok := e.m.(interface{ setTraceBuf(*trace.Buf) }); ok {
		ts.setTraceBuf(b)
	}
}

// SetDump implements DumpSetter: the hook rides to the group member,
// whose control reader is where the coordinator's dump requests land.
// Plain TCP groups have no membership plane and ignore it.
func (e *tcpEndpoint) SetDump(fn func(reason string)) {
	if ds, ok := e.m.(interface{ setDumpFunc(func(string)) }); ok {
		ds.setDumpFunc(fn)
	}
}

// setConn installs the connection to peer. The raw conn is kept for
// Close/CloseWrite/teardown; batch reads and writes run over the
// deadline-arming stageConn (optionally over a test wrapper), so every
// read and write carries the deadline.
func (e *tcpEndpoint) setConn(peer int, c net.Conn) {
	e.conns[peer] = c
	inner := c
	if e.st.wrapConn != nil {
		inner = e.st.wrapConn(e.id, peer, inner)
	}
	e.sc[peer] = newStageConn(inner, e.st.timeout)
}

// closeConns closes this endpoint's raw sockets.
func (e *tcpEndpoint) closeConns() {
	for _, c := range e.conns {
		if c != nil {
			c.Close()
		}
	}
}

// leave implements link. Our write directions are shut down so that a
// peer still expecting traffic observes EOF (a superstep-count
// mismatch) instead of hanging; the last local member to leave tears
// down this process's sockets. Carried bytes go back to the pool.
func (e *tcpEndpoint) leave() {
	putBatches(e.carry)
	for _, c := range e.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}
	if e.m.Leave() {
		e.st.runTeardown()
	}
}

// transfer implements link: one total exchange, shipping one framed
// buffer per (src,dst) pair — small ones posted eagerly, the rest
// stage by stage.
func (e *tcpEndpoint) transfer() error {
	sched := e.st.sched
	// Eager post (Appendix B.2): in schedule order, so the partner of
	// our first stage is served first.
	for stage := 0; stage < sched.Stages(); stage++ {
		peer := sched.Partner(stage, e.id)
		if peer < 0 || len(e.out[peer]) > batchHdrLen+eagerLimit {
			continue
		}
		if err := e.writeBatch(peer); err != nil {
			return e.stageError(peer, err)
		}
	}
	// Staged remainder (Appendix B.3): writeBatch skips posted peers.
	for stage := 0; stage < sched.Stages(); stage++ {
		peer := sched.Partner(stage, e.id)
		if peer < 0 {
			continue
		}
		var err error
		if e.id < peer {
			err = e.writeBatch(peer)
			if err == nil {
				err = e.readBatch(peer)
			}
		} else {
			err = e.readBatch(peer)
			if err == nil {
				err = e.writeBatch(peer)
			}
		}
		if err != nil {
			return e.stageError(peer, err)
		}
	}
	return nil
}

// stageError classifies a failed exchange stage through the group
// member: an abort anywhere in the gang outranks the socket error it
// caused, a peer that left cleanly is a superstep-count mismatch, and
// anything else surfaces as the raw error naming the pair and
// superstep. Cluster members first wait briefly for an in-flight
// abort/leave notification from the coordinator — except after a
// deadline: a peer silent for a whole stage deadline gave any such
// notification all that time to land.
func (e *tcpEndpoint) stageError(peer int, err error) error {
	if fs, ok := e.m.(failureSettler); ok && !errors.Is(err, os.ErrDeadlineExceeded) {
		fs.settleFailure(peer)
	}
	round := e.round + 1 // 1-based, as on the wire
	if e.m.Aborted() {
		// A coordinator crash declaration outranks the anonymous abort:
		// surfacing the named *CrashError lets the recovery layer know
		// exactly which rank died (and which epoch to rejoin at), which
		// is what makes warm single-rank recovery possible. The trace
		// instant is recorded here — on the rank goroutine, the only
		// legal writer of this rank's event buffer.
		if ac, ok := e.m.(abortCauser); ok {
			if cause := ac.abortCause(); cause != nil {
				e.buf.Fault(round, trace.FaultSuspect, time.Now().UnixNano(), int64(cause.Rank))
				return cause
			}
		}
		return ErrAborted
	}
	if e.m.Left(peer) {
		return fmt.Errorf("tcp: process %d exited while process %d is exchanging superstep %d (superstep counts diverged): %w",
			peer, e.id, round, err)
	}
	return fmt.Errorf("tcp: process %d exchanging with %d in superstep %d: %w", e.id, peer, round, err)
}

// writeBatch ships this superstep's whole per-pair buffer to peer in a
// single write: [round][byte length] in the reserved header bytes, then
// the contiguous batch. An empty batch is a bare header from the
// endpoint's own array. A peer already posted this round is skipped.
// The batch buffer returns to the pool as soon as the write returns.
func (e *tcpEndpoint) writeBatch(peer int) error {
	round := uint32(e.round) + 1 // the batch header's 1-based superstep
	if e.posted[peer] == round {
		return nil
	}
	batch := e.out[peer]
	if batch == nil {
		batch = e.hdr[:]
	}
	binary.LittleEndian.PutUint32(batch[0:4], round)
	binary.LittleEndian.PutUint32(batch[4:8], uint32(len(batch)-batchHdrLen))
	if _, err := e.sc[peer].Write(batch); err != nil {
		return err
	}
	e.posted[peer] = round
	e.handoff(peer)
	if len(batch) > batchHdrLen {
		putBatch(batch)
	}
	return nil
}

// readBatch receives peer's whole per-pair batch into one pooled
// buffer laid out as writeBatch sent it, header in front, starting from
// the bytes carried past peer's previous batch. The engine validates
// the framing in the one pass the inbox relies on.
func (e *tcpEndpoint) readBatch(peer int) error {
	r := e.sc[peer]
	b := e.carry[peer]
	e.carry[peer] = nil
	if b == nil {
		b = getBatch()
	}
	if len(b) < batchHdrLen {
		n, err := io.ReadAtLeast(r, b[len(b):min(cap(b), firstReadLimit)], batchHdrLen-len(b))
		b = b[:len(b)+n]
		if err != nil {
			putBatch(b)
			if err == io.EOF && len(b) == 0 {
				return fmt.Errorf("peer exited (superstep counts diverged): %w", err)
			}
			return err
		}
	}
	if round := binary.LittleEndian.Uint32(b[0:4]); round != uint32(e.round)+1 {
		putBatch(b)
		return fmt.Errorf("superstep mismatch: peer at %d, local at %d", round, e.round+1)
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > tcpFrameLimit {
		putBatch(b)
		return fmt.Errorf("corrupt batch header: %d bytes", n)
	}
	total := batchHdrLen + int(n)
	switch {
	case len(b) > total: // read past the batch: the front of peer's next one
		e.carry[peer] = append(getBatch(), b[total:]...)
		b = b[:total]
	case len(b) < total: // the rest of the body, in one exact read
		if cap(b) < total {
			grown := make([]byte, len(b), total)
			copy(grown, b)
			putBatch(b)
			b = grown
		}
		have := len(b)
		b = b[:total]
		if _, err := io.ReadFull(r, b[have:]); err != nil {
			putBatch(b)
			return err
		}
	}
	return e.accept(peer, b)
}
