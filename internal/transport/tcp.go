package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// The transport is hardened against transient failure: every connect,
// read and write carries a per-stage deadline, and operations that fail
// with a retryable error (a net.Error timeout or an injected
// ErrTransient fault, see ChaosTransport) are retried a bounded number
// of times with exponential backoff before the superstep is failed. A
// peer that stays silent past the deadline therefore surfaces as an
// error naming the pair and superstep instead of a hang.
type TCPTransport struct {
	// StageTimeout bounds each individual connect, read and write; a
	// peer silent for longer fails the operation with a timeout error
	// (after retries). 0 means tcpDefaultStageTimeout. This is a
	// per-operation liveness bound, not a superstep budget — use
	// core Config.SyncTimeout to bound whole supersteps.
	StageTimeout time.Duration
	// MaxRetries is how many times a transiently-failed operation is
	// retried (with backoff doubling from tcpRetryBackoff). 0 means
	// tcpDefaultRetries; negative disables retry.
	MaxRetries int

	// wrapConn, when set (by ChaosTransport), decorates each
	// connection for fault injection, beneath the deadline-and-retry
	// policy every batch read and write goes through.
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

// Defaults for the hardening knobs: the stage deadline is generous (it
// only has to beat "forever"), the retry budget small (transient faults
// are rare or the link is genuinely down).
const (
	tcpDefaultStageTimeout = 2 * time.Minute
	tcpDefaultRetries      = 3
	tcpRetryBackoff        = 500 * time.Microsecond
)

func (t TCPTransport) stageTimeout() time.Duration {
	if t.StageTimeout > 0 {
		return t.StageTimeout
	}
	return tcpDefaultStageTimeout
}

func (t TCPTransport) maxRetries() int {
	if t.MaxRetries > 0 {
		return t.MaxRetries
	}
	if t.MaxRetries < 0 {
		return 0
	}
	return tcpDefaultRetries
}

// isTransientNetErr reports whether an I/O error may be retried:
// injected transient faults and deadline-style timeouts qualify;
// closed connections, EOFs and framing errors do not.
func isTransientNetErr(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

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
		timeout:  t.stageTimeout(),
		retries:  t.maxRetries(),
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
			cj, err := st.dial(ln.Addr().String())
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
	retries  int
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

// dial connects with the per-stage deadline and bounded retry +
// exponential backoff on transient failures.
func (st *tcpState) dial(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= st.retries; attempt++ {
		c, err := net.DialTimeout("tcp", addr, st.timeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !isTransientNetErr(err) || attempt == st.retries {
			break
		}
		time.Sleep(tcpRetryBackoff << attempt)
	}
	return nil, lastErr
}

// stageConn wraps a (possibly chaos-decorated) connection with the
// per-operation deadline + bounded-retry policy. Retries fire only when
// no bytes were transferred, so a retried call never splits or repeats
// stream data; a partial transfer with an error is surfaced as-is.
type stageConn struct {
	net.Conn
	timeout time.Duration
	retries int
}

func (c *stageConn) Read(p []byte) (n int, err error) {
	for attempt := 0; ; attempt++ {
		c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
		n, err = c.Conn.Read(p)
		if err == nil || n > 0 || attempt >= c.retries || !isTransientNetErr(err) {
			return n, err
		}
		time.Sleep(tcpRetryBackoff << attempt)
	}
}

func (c *stageConn) Write(p []byte) (n int, err error) {
	for attempt := 0; ; attempt++ {
		c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
		n, err = c.Conn.Write(p)
		if err == nil || n > 0 || attempt >= c.retries || !isTransientNetErr(err) {
			return n, err
		}
		time.Sleep(tcpRetryBackoff << attempt)
	}
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
	sc     []*stageConn // unbuffered: one Write per batch, reads straight into batches
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
// retry-and-deadline stageConn (optionally over a fault-injecting
// wrapper), so every read and write inherits the policy.
func (e *tcpEndpoint) setConn(peer int, c net.Conn) {
	e.conns[peer] = c
	inner := c
	if e.st.wrapConn != nil {
		inner = e.st.wrapConn(e.id, peer, inner)
	}
	e.sc[peer] = &stageConn{Conn: inner, timeout: e.st.timeout, retries: e.st.retries}
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
// abort/leave notification from the coordinator.
func (e *tcpEndpoint) stageError(peer int, err error) error {
	if fs, ok := e.m.(failureSettler); ok {
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
				if e.buf != nil {
					e.buf.Fault(round, trace.FaultSuspect, time.Now().UnixNano(), int64(cause.Rank))
				}
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
