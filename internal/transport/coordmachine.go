package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// The coordinator's membership protocol as a pure state machine:
// step(now, event) returns the actions to perform and nothing else
// happens. It owns every admission, fencing and conviction decision and
// touches no socket, lock, goroutine or clock (time enters only as
// now), so it is tested by feeding it event sequences; coordinator.go
// turns sockets and timers into events and actions into writes.
// DESIGN §11 tabulates state × event → actions.

// connID names one accepted control connection; the shell assigns them.
type connID int

type (
	event  any
	action any
)

// Events.
type (
	evJoin struct {
		conn connID
		join wire.Join
	}
	evFrame struct {
		conn connID
		msg  wire.Ctrl
	}
	// The connection's reader stopped; err wraps wire.ErrCtrl when the
	// peer broke the protocol.
	evConnLost struct {
		conn connID
		err  error
	}
	evTick         struct{}
	evAdvanceEpoch struct{}
	evClose        struct{}
)

// Actions. The fourth, "Fenced", is a Fence value.
type (
	actSend struct {
		conn connID
		msg  wire.Ctrl
	}
	actCloseConn struct{ conn connID }
	// actIngest hands a valid member beat's telemetry tail to the
	// aggregate.
	actIngest struct {
		hb   wire.Heartbeat
		tail []byte
	}
)

// Fence reports that the generation of FailedEpoch is over and NewEpoch
// is being admitted. Rank is the convicted rank, or -1 for a cooperative abort.
type Fence struct {
	Rank, FailedEpoch, NewEpoch int
	Reason                      string
}

type coordMachine struct {
	p    int
	opts CoordinatorOptions

	epoch  int
	gen    *coordGen               // the generation of the current epoch, nil until its first join
	conns  map[connID]*coordMember // every connection still tracked, of any generation
	newest []*coordMember          // per rank: its most recently admitted member
	closed bool
	out    []action
}

// coordGen is one gang generation: the ranks joined at one epoch.
type coordGen struct {
	epoch    int
	members  []*coordMember // by rank; nil = not joined
	joined   int
	ready    bool
	failed   bool
	joinBy   time.Time // assembling: when the missing ranks are named
	nextBeat time.Time // ready: when the next heartbeat round is due
	seq      uint32
}

type coordMember struct {
	gen        *coordGen
	conn       connID
	rank       int
	addr       string
	left, gone bool      // sent Leave; connection closed or lost
	lastBeat   time.Time // last frame that proved the process alive
}

// newCoordMachine resolves the options' defaults, for its shell too.
func newCoordMachine(p int, opts CoordinatorOptions) *coordMachine {
	opts.JoinTimeout = orDefault(opts.JoinTimeout, clusterDefaultJoinTimeout)
	opts.HeartbeatInterval = orDefault(opts.HeartbeatInterval, clusterDefaultHeartbeatInterval)
	opts.SuspectAfter = orDefault(opts.SuspectAfter, DefaultSuspectAfter)
	return &coordMachine{p: p, opts: opts, epoch: opts.Epoch,
		conns: make(map[connID]*coordMember), newest: make([]*coordMember, p)}
}

// step applies one event and returns the actions it causes.
func (m *coordMachine) step(now time.Time, ev event) []action {
	if m.closed {
		return nil
	}
	m.out = nil
	switch ev := ev.(type) {
	case evJoin:
		m.join(now, ev)
	case evFrame:
		m.frame(now, ev)
	case evConnLost:
		m.lost(ev)
	case evTick:
		m.tick(now)
	case evAdvanceEpoch:
		m.epoch++
		if g := m.gen; g != nil && !g.ready {
			// Connected, its ranks would sit out their own join deadline.
			m.dismiss(g, fmt.Sprintf("epoch %d abandoned before the gang assembled: job %q is at epoch %d", g.epoch, m.opts.JobID, m.epoch))
		}
		m.gen = nil
	case evClose:
		m.close()
	}
	return m.out
}

// deadline is when the next evTick is due; zero when none is.
func (m *coordMachine) deadline() time.Time {
	switch g := m.gen; {
	case g == nil:
	case !g.ready:
		return g.joinBy
	case m.opts.HeartbeatInterval > 0 && len(m.conns) > 0:
		return g.nextBeat
	}
	return time.Time{}
}

func (m *coordMachine) send(mem *coordMember, msg wire.Ctrl) {
	if !mem.gone {
		m.out = append(m.out, actSend{mem.conn, msg})
	}
}

// drop closes a member's connection and stops tracking it.
func (m *coordMachine) drop(mem *coordMember) {
	m.out = append(m.out, actCloseConn{mem.conn})
	delete(m.conns, mem.conn)
	mem.gone = true
}

// dismiss rejects every joined rank of a generation that never became
// ready.
func (m *coordMachine) dismiss(g *coordGen, reason string) {
	for _, mem := range g.members {
		if mem != nil {
			m.send(mem, wire.Reject{Reason: reason})
			m.drop(mem)
		}
	}
}

// join validates one rank's handshake and admits it into the current
// generation; the p-th admission is the readiness barrier.
func (m *coordMachine) join(now time.Time, ev evJoin) {
	hs, job, g := ev.join.Handshake, m.opts.JobID, m.gen
	var reason string
	switch {
	case hs.JobID != job:
		reason = fmt.Sprintf("wrong job id %q (this coordinator serves job %q)", hs.JobID, job)
	case hs.P != m.p:
		reason = fmt.Sprintf("p mismatch: handshake says %d ranks, job %q has %d", hs.P, job, m.p)
	case hs.Rank < 0 || hs.Rank >= m.p:
		reason = fmt.Sprintf("rank %d out of range [0,%d)", hs.Rank, m.p)
	case hs.Epoch < m.epoch:
		reason = fmt.Sprintf("stale epoch %d: job %q is at epoch %d (a process from a previous generation must not rejoin; resume with the bumped epoch)", hs.Epoch, job, m.epoch)
	case hs.Epoch > m.epoch:
		reason = fmt.Sprintf("epoch %d not yet current: job %q is at epoch %d", hs.Epoch, job, m.epoch)
	case g != nil && g.members[hs.Rank] != nil:
		reason = fmt.Sprintf("duplicate rank %d: already joined job %q epoch %d", hs.Rank, job, m.epoch)
	}
	if reason != "" {
		m.out = append(m.out, actSend{ev.conn, wire.Reject{Reason: reason}}, actCloseConn{ev.conn})
		return
	}
	if g == nil {
		g = &coordGen{epoch: m.epoch, members: make([]*coordMember, m.p), joinBy: now.Add(m.opts.JoinTimeout)}
		m.gen = g
	}
	mem := &coordMember{gen: g, conn: ev.conn, rank: hs.Rank, addr: ev.join.DataAddr}
	g.members[hs.Rank], m.conns[ev.conn], m.newest[hs.Rank] = mem, mem, mem
	g.joined++
	if g.joined < m.p {
		return
	}
	g.ready = true
	g.nextBeat = now.Add(m.opts.HeartbeatInterval)
	book := wire.Book{Addrs: make([]string, m.p)}
	for r, mm := range g.members {
		book.Addrs[r] = mm.addr
	}
	for _, mm := range g.members {
		mm.lastBeat = now
		m.send(mm, book)
	}
}

// frame serves one message from an admitted member.
func (m *coordMachine) frame(now time.Time, ev evFrame) {
	mem := m.conns[ev.conn]
	if mem == nil {
		return // a frame that raced its connection's CloseConn
	}
	g := mem.gen
	violation := func(what string) {
		m.lost(evConnLost{ev.conn, fmt.Errorf("%w: %s", wire.ErrCtrl, what)})
	}
	if !g.ready {
		violation("spoke before the gang was ready")
		return
	}
	switch msg := ev.msg.(type) {
	case wire.Ping:
		if msg.Rank != mem.rank || msg.Epoch != g.epoch {
			return // proves nothing about this member: not liveness, not telemetry
		}
		if msg.Tail != nil {
			m.out = append(m.out, actIngest{msg.Heartbeat, msg.Tail})
		}
		if !g.failed && !mem.left {
			m.send(mem, wire.Ping{Heartbeat: msg.Heartbeat}) // the echo is bare
		}
	case wire.Abort:
		m.fail(g, -1, fmt.Sprintf("rank %d aborted: %s", mem.rank, msg.Reason))
	case wire.Leave:
		if msg.Rank != mem.rank {
			violation(fmt.Sprintf("left on behalf of rank %d", msg.Rank))
			return
		}
		mem.left = true
		for _, mm := range g.members {
			if mm != mem && !mm.left {
				m.send(mm, msg)
			}
		}
	default:
		violation(fmt.Sprintf("sent a coordinator-only %T", msg))
		return
	}
	mem.lastBeat = now
}

// lost ends one connection: a ready member gone without a Leave is the
// crash fan-out; a rank of a generation still assembling frees its slot.
func (m *coordMachine) lost(ev evConnLost) {
	mem := m.conns[ev.conn]
	if mem == nil {
		m.out = append(m.out, actCloseConn{ev.conn}) // never admitted, or already dropped
		return
	}
	m.drop(mem)
	g := mem.gen
	switch {
	case !g.ready:
		g.members[mem.rank] = nil
		if g.joined--; g.joined == 0 && g == m.gen {
			m.gen = nil // the join deadline restarts with the next first join
		}
	case mem.left:
	case errors.Is(ev.err, wire.ErrCtrl):
		m.fail(g, mem.rank, fmt.Sprintf("rank %d broke the control protocol (%v): connection closed", mem.rank, ev.err))
	default:
		m.fail(g, mem.rank, fmt.Sprintf("rank %d disconnected without leaving (crashed?)", mem.rank))
	}
	if g.ready && len(m.conns) == 0 && m.opts.closeOnIdle {
		m.close()
	}
}

// tick evaluates the two deadlines: the join deadline of an assembling
// generation (the silent peer is named by its absence) and the
// heartbeat round of a ready one, where conviction turns a hung-but-
// connected process into a prompt ErrCrashed instead of a sync-watchdog
// timeout much later.
func (m *coordMachine) tick(now time.Time) {
	g := m.gen
	switch {
	case g == nil:
	case !g.ready:
		if now.Before(g.joinBy) {
			return
		}
		var missing []int
		for r, mem := range g.members {
			if mem == nil {
				missing = append(missing, r)
			}
		}
		m.gen = nil
		m.dismiss(g, fmt.Sprintf("cluster join timed out after %v: rank(s) %v never completed the handshake (job %q, epoch %d)",
			m.opts.JoinTimeout, missing, m.opts.JobID, g.epoch))
	case m.opts.HeartbeatInterval > 0 && !now.Before(g.nextBeat):
		g.seq++
		g.nextBeat = now.Add(m.opts.HeartbeatInterval)
		beat := wire.Ping{Heartbeat: wire.Heartbeat{Rank: wire.CoordinatorRank, Epoch: g.epoch, Seq: g.seq}}
		suspect := m.opts.SuspectAfter
		var silent *coordMember
		for _, mem := range g.members {
			if mem.left || mem.gone {
				continue
			}
			m.send(mem, beat)
			if suspect > 0 && silent == nil && now.Sub(mem.lastBeat) > suspect {
				silent = mem
			}
		}
		if silent != nil {
			m.fail(g, silent.rank, fmt.Sprintf("rank %d sent no heartbeat for %v (suspect after %v): declared crashed",
				silent.rank, now.Sub(silent.lastBeat).Round(time.Millisecond), suspect))
		}
	}
}

// fail ends a ready generation exactly once: it fences the dead epoch
// (stragglers are rejected at the handshake, survivors rejoin at the
// next epoch without launcher involvement) and tells every connected
// member first to persist its flight ring, then the verdict: a crash
// declaration convicting crashedRank, or (< 0) a cooperative abort.
func (m *coordMachine) fail(g *coordGen, crashedRank int, reason string) {
	if g.failed {
		return
	}
	g.failed = true
	if g == m.gen {
		m.epoch++
		m.gen = nil
	}
	var verdict wire.Ctrl = wire.Abort{Reason: reason}
	if crashedRank >= 0 {
		verdict = wire.Crash{Rank: crashedRank, NewEpoch: m.epoch, Reason: reason}
	}
	for _, msg := range []wire.Ctrl{wire.Dump{Reason: reason}, verdict} {
		for _, mem := range g.members {
			if !mem.left {
				m.send(mem, msg)
			}
		}
	}
	m.out = append(m.out, Fence{Rank: crashedRank, FailedEpoch: g.epoch, NewEpoch: m.epoch, Reason: reason})
}

func (m *coordMachine) close() {
	m.closed, m.gen = true, nil
	for _, mem := range m.conns {
		m.drop(mem)
	}
}
