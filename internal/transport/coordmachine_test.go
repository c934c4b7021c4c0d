package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// The coordinator's protocol, tested as the pure machine it is: a table
// of event scripts with their exact actions, then seeded random
// interleavings checked against invariants. No sockets, no goroutines,
// no real time.

var machineT0 = time.Unix(1_000_000, 0)

func testJoin(job string, rank, epoch, p int) wire.Join {
	return wire.Join{Handshake: wire.Handshake{JobID: job, Rank: rank, Epoch: epoch, P: p}, DataAddr: fmt.Sprintf("addr-%d", rank)}
}

// actString renders one action compactly: "c2<Reject(duplicate rank 0…)".
func actString(a action) string {
	switch a := a.(type) {
	case actSend:
		switch msg := a.msg.(type) {
		case wire.Book:
			return fmt.Sprintf("c%d<Book%v", a.conn, msg.Addrs)
		case wire.Reject:
			return fmt.Sprintf("c%d<Reject(%s)", a.conn, msg.Reason)
		case wire.Dump:
			return fmt.Sprintf("c%d<Dump", a.conn)
		case wire.Abort:
			return fmt.Sprintf("c%d<Abort(%s)", a.conn, msg.Reason)
		case wire.Crash:
			return fmt.Sprintf("c%d<Crash(rank %d, epoch %d: %s)", a.conn, msg.Rank, msg.NewEpoch, msg.Reason)
		case wire.Leave:
			return fmt.Sprintf("c%d<Leave(%d)", a.conn, msg.Rank)
		case wire.Ping:
			if msg.Tail != nil {
				return fmt.Sprintf("c%d<Ping(rank %d, epoch %d, seq %d, tail %q)", a.conn, msg.Rank, msg.Epoch, msg.Seq, msg.Tail)
			}
			return fmt.Sprintf("c%d<Ping(rank %d, epoch %d, seq %d)", a.conn, msg.Rank, msg.Epoch, msg.Seq)
		}
		return fmt.Sprintf("c%d<%T", a.conn, a.msg)
	case actCloseConn:
		return fmt.Sprintf("close c%d", a.conn)
	case actIngest:
		return fmt.Sprintf("ingest r%d e%d seq %d %q", a.hb.Rank, a.hb.Epoch, a.hb.Seq, a.tail)
	case Fence:
		return fmt.Sprintf("fenced rank %d, %d->%d", a.Rank, a.FailedEpoch, a.NewEpoch)
	}
	return fmt.Sprintf("%#v", a)
}

// TestCoordinatorMachineTable: each row is a script of (clock advance, event)
// steps; want lists the actions of the LAST step, each matched by
// prefix (reasons are long; their pinned fragments are spelled out).
func TestCoordinatorMachineTable(t *testing.T) {
	type step struct {
		after time.Duration
		ev    event
	}
	ping := func(conn connID, rank, epoch int, tail ...byte) step {
		return step{0, evFrame{conn, wire.Ping{Heartbeat: wire.Heartbeat{Rank: rank, Epoch: epoch, Seq: 9}, Tail: tail}}}
	}
	join := func(conn connID, rank, epoch int) step { return step{0, evJoin{conn, testJoin("job", rank, epoch, 2)}} }
	ready2 := []step{join(1, 0, 0), join(2, 1, 0)} // p = 2, c1 = rank 0, c2 = rank 1
	opts := CoordinatorOptions{JobID: "job", JoinTimeout: 10 * time.Second, HeartbeatInterval: time.Second, SuspectAfter: 3 * time.Second}
	with := func(prefix []step, more ...step) []step { return append(append([]step(nil), prefix...), more...) }

	for _, tc := range []struct {
		name      string
		opts      CoordinatorOptions
		script    []step
		want      []string
		wantEpoch int
	}{
		{name: "the last missing rank completes the gang: Book to all, by rank",
			script: ready2,
			want:   []string{"c1<Book[addr-0 addr-1]", "c2<Book[addr-0 addr-1]"}},
		{name: "duplicate rank is rejected by name at once",
			script: []step{join(1, 0, 0), join(2, 0, 0)},
			want:   []string{`c2<Reject(duplicate rank 0: already joined job "job" epoch 0)`, "close c2"}},
		{name: "the duplicate did not delay the gang: rank 1 arrives, the first rank 0 gets its Book",
			script: []step{join(1, 0, 0), join(2, 0, 0), join(3, 1, 0)},
			want:   []string{"c1<Book[addr-0 addr-1]", "c3<Book[addr-0 addr-1]"}},
		{name: "wrong job id names both",
			script: []step{{0, evJoin{1, testJoin("other", 0, 0, 2)}}},
			want:   []string{`c1<Reject(wrong job id "other" (this coordinator serves job "job"))`, "close c1"}},
		{name: "p mismatch",
			script: []step{{0, evJoin{1, testJoin("job", 0, 0, 3)}}},
			want:   []string{`c1<Reject(p mismatch: handshake says 3 ranks, job "job" has 2)`, "close c1"}},
		{name: "rank out of range",
			script: []step{join(1, 2, 0)},
			want:   []string{"c1<Reject(rank 2 out of range [0,2))", "close c1"}},
		{name: "stale epoch after AdvanceEpoch names both epochs",
			script:    []step{{0, evAdvanceEpoch{}}, join(1, 0, 0)},
			want:      []string{`c1<Reject(stale epoch 0: job "job" is at epoch 1`, "close c1"},
			wantEpoch: 1},
		{name: "future epoch",
			script: []step{join(1, 0, 7)},
			want:   []string{"c1<Reject(epoch 7 not yet current", "close c1"}},
		{name: "join deadline names the missing rank to every joined one",
			script: []step{join(1, 0, 0), {10 * time.Second, evTick{}}},
			want:   []string{"c1<Reject(cluster join timed out after 10s: rank(s) [1] never completed the handshake", "close c1"}},
		{name: "a tick before the join deadline does nothing",
			script: []step{join(1, 0, 0), {9 * time.Second, evTick{}}}},
		{name: "a joined rank lost while the gang assembles frees its slot",
			script: []step{join(1, 0, 0), {0, evConnLost{1, nil}}, join(2, 0, 0), join(3, 1, 0)},
			want:   []string{"c2<Book[addr-0 addr-1]", "c3<Book[addr-0 addr-1]"}},
		{name: "AdvanceEpoch dismisses a half-assembled generation",
			script:    []step{join(1, 0, 0), {0, evAdvanceEpoch{}}},
			want:      []string{"c1<Reject(epoch 0 abandoned before the gang assembled", "close c1"},
			wantEpoch: 1},
		{name: "a member's own beat is echoed",
			script: with(ready2, ping(2, 1, 0)),
			want:   []string{"c2<Ping(rank 1, epoch 0, seq 9)"}},
		{name: "telemetry is handed to the aggregate under the sender's rank",
			script: with(ready2, ping(2, 1, 0, 't')),
			want:   []string{`ingest r1 e0 seq 9 "t"`, "c2<Ping(rank 1, epoch 0, seq 9)"}},
		{name: "a mismatched beat's telemetry is not ingested either",
			script: with(ready2, ping(2, 0, 0, 't'), ping(2, 1, 1, 't'))},
		{name: "a leave is relayed to the others",
			script: with(ready2, step{0, evFrame{1, wire.Leave{Rank: 0}}}),
			want:   []string{"c2<Leave(0)"}},
		{name: "a left member's disconnect is not a crash",
			script: with(ready2, step{0, evFrame{1, wire.Leave{Rank: 0}}}, step{0, evConnLost{1, nil}}),
			want:   []string{"close c1"}},
		{name: "abort: dump then abort to all, the epoch is fenced, nobody convicted",
			script:    with(ready2, step{0, evFrame{2, wire.Abort{Reason: "local abort"}}}),
			want:      []string{"c1<Dump", "c2<Dump", "c1<Abort(rank 1 aborted: local abort)", "c2<Abort(rank 1 aborted: local abort)", "fenced rank -1, 0->1"},
			wantEpoch: 1},
		{name: "a generation fails once: a crash after the abort changes nothing",
			script:    with(ready2, step{0, evFrame{2, wire.Abort{}}}, step{0, evConnLost{1, nil}}),
			want:      []string{"close c1"},
			wantEpoch: 1},
		{name: "a dropped connection convicts its rank: dump then crash to the survivor",
			script:    with(ready2, step{0, evConnLost{2, nil}}),
			want:      []string{"close c2", "c1<Dump", "c1<Crash(rank 1, epoch 1: rank 1 disconnected without leaving (crashed?))", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "a frame that fails ParseCtrl closes the connection and convicts the rank",
			script:    with(ready2, step{0, evConnLost{2, fmt.Errorf("%w: unknown tag '?'", wire.ErrCtrl)}}),
			want:      []string{"close c2", "c1<Dump", "c1<Crash(rank 1, epoch 1: rank 1 broke the control protocol", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "so does a well-formed message only the coordinator may send",
			script:    with(ready2, step{0, evFrame{2, wire.Book{}}}),
			want:      []string{"close c2", "c1<Dump", "c1<Crash(rank 1, epoch 1: rank 1 broke the control protocol", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "and a leave on another rank's behalf",
			script:    with(ready2, step{0, evFrame{2, wire.Leave{Rank: 0}}}),
			want:      []string{"close c2", "c1<Dump", "c1<Crash(rank 1, epoch 1: rank 1 broke the control protocol", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "a heartbeat round beats every member",
			script: with(ready2, step{time.Second, evTick{}}),
			want:   []string{"c1<Ping(rank -1, epoch 0, seq 1)", "c2<Ping(rank -1, epoch 0, seq 1)"}},
		{name: "beats keep a member alive; silence past SuspectAfter convicts",
			script: with(ready2,
				step{time.Second, evTick{}}, ping(1, 0, 0),
				step{time.Second, evTick{}}, ping(1, 0, 0),
				step{time.Second, evTick{}}, ping(1, 0, 0),
				step{time.Second, evTick{}}),
			want: []string{"c1<Ping(rank -1, epoch 0, seq 4)", "c2<Ping(rank -1, epoch 0, seq 4)",
				"c1<Dump", "c2<Dump", "c1<Crash(rank 1, epoch 1: rank 1 sent no heartbeat for 4s (suspect after 3s): declared crashed)", "c2<Crash(rank 1", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "a beat naming another rank or epoch is neither echoed nor liveness",
			script: with(ready2,
				step{time.Second, evTick{}}, ping(1, 0, 0), ping(2, 0, 0),
				step{time.Second, evTick{}}, ping(1, 0, 0), ping(2, 1, 1),
				step{time.Second, evTick{}}, ping(1, 0, 0), ping(2, 1, 7),
				step{time.Second, evTick{}}),
			want:      []string{"c1<Ping(rank -1", "c2<Ping(rank -1", "c1<Dump", "c2<Dump", "c1<Crash(rank 1, epoch 1: rank 1 sent no heartbeat for 4s", "c2<Crash(rank 1", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "the mismatched beat itself draws no reply",
			script: with(ready2, ping(2, 0, 0))},
		{name: "negative SuspectAfter: beats flow, nobody is convicted",
			opts:   CoordinatorOptions{JobID: "job", HeartbeatInterval: time.Second, SuspectAfter: -1},
			script: with(ready2, step{time.Hour, evTick{}}),
			want:   []string{"c1<Ping(rank -1, epoch 0, seq 1)", "c2<Ping(rank -1, epoch 0, seq 1)"}},
		{name: "a generation already fenced by AdvanceEpoch fails without a second advance",
			script:    with(ready2, step{0, evAdvanceEpoch{}}, step{0, evConnLost{2, nil}}),
			want:      []string{"close c2", "c1<Dump", "c1<Crash(rank 1, epoch 1:", "fenced rank 1, 0->1"},
			wantEpoch: 1},
		{name: "closeOnIdle: the last disconnect of a ready generation closes the coordinator",
			opts: CoordinatorOptions{JobID: "job", closeOnIdle: true},
			script: with(ready2, step{0, evFrame{1, wire.Leave{Rank: 0}}}, step{0, evFrame{2, wire.Leave{Rank: 1}}},
				step{0, evConnLost{1, nil}}, step{0, evConnLost{2, nil}}, join(3, 0, 0)),
			want: nil},
		{name: "Close drops every tracked connection (in no particular order)",
			script: with(ready2, step{0, evClose{}}),
			want:   []string{"close c1", "close c2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			if o.JobID == "" {
				o = opts
			}
			m, now := newCoordMachine(2, o), machineT0
			var got []string
			for _, s := range tc.script {
				now = now.Add(s.after)
				got = got[:0]
				for _, a := range m.step(now, s.ev) {
					got = append(got, actString(a))
				}
			}
			if _, closing := tc.script[len(tc.script)-1].ev.(evClose); closing {
				sort.Strings(got)
			}
			ok := len(got) == len(tc.want)
			for i := 0; ok && i < len(got); i++ {
				ok = strings.HasPrefix(got[i], tc.want[i])
			}
			if !ok {
				t.Errorf("last step's actions:\n  got  %q\n  want %q (by prefix)", got, tc.want)
			}
			if m.epoch != tc.wantEpoch {
				t.Errorf("epoch = %d, want %d", m.epoch, tc.wantEpoch)
			}
		})
	}
}

// --- the fence as properties ---

// simConn is the harness's record of one control connection.
type simConn struct {
	id                     connID
	rank, epoch            int
	admitted, booked, left bool
	closed                 bool
	lastBeat               time.Time
	rec                    *simRecorder // the recorder its process counts with
}

// simRecorder is one process's recorder: what a rank's beat tails
// count from. A survivor that rejoins at a new epoch keeps it; a
// relaunched process starts a new one.
type simRecorder struct {
	epoch    int64   // the tail's recorder epoch
	vals     []int64 // its cumulative counter row, in trace.Fields order
	lastGang int     // the gang epoch of its newest tail; -1 before any
}

// fenceSim drives a coordMachine with random events and a fake clock,
// playing the shell: it performs Ingest on a real telemetryAgg, and
// checks every step's actions against a small reference model.
type fenceSim struct {
	t    *testing.T
	rng  *rand.Rand
	p    int
	opts CoordinatorOptions
	m    *coordMachine
	agg  *telemetryAgg
	now  time.Time
	log  []string

	conns    map[connID]*simConn
	open     []*simConn // admitted and not closed
	nextConn connID
	epoch    int                // the model's epoch
	asm      map[int]*simConn   // the generation assembling at epoch, by rank
	asmSince time.Time          // its first join
	gens     map[int][]*simConn // ready generations by epoch
	failed   map[int]bool       // epochs whose generation got its Fence
	newest   []*simConn         // per rank: its newest booked connection (the one whose beats carry telemetry)
	recs     []*simRecorder     // per rank: the recorder of its newest admitted connection
	curRec   []*simRecorder     // per rank: the recorder of the newest tail ingested
	nextRec  int64
	want     [][]int64 // per rank: the row the aggregate must show (counters totalled, gauges newest)
	was      [][]int64 // per rank: the aggregate's row at the last check
	fenced   bool      // the last step emitted a Fence
}

func (s *fenceSim) failf(format string, args ...any) {
	s.t.Helper()
	tail := s.log
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	s.t.Fatalf("%s\nlast events:\n  %s", fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

// do steps the machine and checks the invariants that hold for every
// event; it returns what this step sent to each connection.
func (s *fenceSim) do(ev event) map[connID][]wire.Ctrl {
	before := s.m.epoch
	acts := s.m.step(s.now, ev)
	line := fmt.Sprintf("+%v e%d %+v =>", s.now.Sub(machineT0), before, ev)
	for _, a := range acts {
		line += " " + actString(a)
	}
	s.log = append(s.log, line)

	sent := map[connID][]wire.Ctrl{}
	var fences []Fence
	var books []*simConn
	for _, a := range acts {
		switch a := a.(type) {
		case actSend:
			c := s.conns[a.conn]
			if c == nil || c.closed {
				s.failf("action addresses a closed connection: %s", actString(a))
			}
			sent[a.conn] = append(sent[a.conn], a.msg)
			if book, ok := a.msg.(wire.Book); ok {
				if !c.admitted || c.booked || c.epoch != s.epoch || s.failed[c.epoch] {
					s.failf("Book to c%d (rank %d, epoch %d) at model epoch %d", c.id, c.rank, c.epoch, s.epoch)
				}
				for r, addr := range book.Addrs {
					if addr != fmt.Sprintf("addr-%d", r) {
						s.failf("Book.Addrs[%d] = %q", r, addr)
					}
				}
				c.booked, c.lastBeat, s.newest[c.rank] = true, s.now, c
				books = append(books, c)
			} else if _, ok := a.msg.(wire.Reject); !ok && !c.booked {
				s.failf("%s before its Book", actString(a))
			}
		case actCloseConn:
			if c := s.conns[a.conn]; c != nil && !c.closed {
				c.closed = true
				for i, o := range s.open {
					if o == c {
						s.open = append(s.open[:i], s.open[i+1:]...)
					}
				}
			}
		case actIngest:
			s.agg.ingest(a.hb, a.tail, s.now)
		case Fence:
			fences = append(fences, a)
		}
	}

	// A generation becomes ready with exactly p distinct ranks, all of
	// the current epoch, in the step its last rank joined.
	if len(books) > 0 {
		if len(books) != s.p || len(s.asm) != s.p {
			s.failf("%d Book(s) with %d of %d ranks assembled", len(books), len(s.asm), s.p)
		}
		for _, c := range books {
			if s.asm[c.rank] != c {
				s.failf("Book to c%d, which is not the admitted rank %d", c.id, c.rank)
			}
		}
		s.gens[s.epoch], s.asm = books, map[int]*simConn{}
	}

	// The epoch moves only by AdvanceEpoch or by the failure of the
	// current generation; each generation is fenced at most once, and
	// its survivors hear Dump then the verdict in that very step.
	want := before
	if _, ok := ev.(evAdvanceEpoch); ok {
		want++
	}
	for _, f := range fences {
		if s.failed[f.FailedEpoch] || s.gens[f.FailedEpoch] == nil {
			s.failf("fence of epoch %d: already fenced, or never ready", f.FailedEpoch)
		}
		s.failed[f.FailedEpoch] = true
		if f.FailedEpoch == before {
			want++
		}
		if f.NewEpoch != s.m.epoch {
			s.failf("fence says new epoch %d, machine is at %d", f.NewEpoch, s.m.epoch)
		}
		for _, c := range s.gens[f.FailedEpoch] {
			if c.closed || c.left {
				continue
			}
			got := sent[c.id]
			ok := len(got) >= 2
			if ok {
				_, ok = got[len(got)-2].(wire.Dump)
			}
			if ok {
				switch v := got[len(got)-1].(type) {
				case wire.Crash:
					ok = f.Rank >= 0 && v.Rank == f.Rank && v.NewEpoch == f.NewEpoch && v.Reason == f.Reason
				case wire.Abort:
					ok = f.Rank < 0 && v.Reason == f.Reason
				default:
					ok = false
				}
			}
			if !ok {
				s.failf("survivor c%d (rank %d) of fenced epoch %d got %v, want Dump then the verdict", c.id, c.rank, f.FailedEpoch, got)
			}
		}
	}
	if s.m.epoch != want {
		s.failf("epoch %d -> %d, want %d", before, s.m.epoch, want)
	}
	s.epoch, s.fenced = s.m.epoch, len(fences) > 0
	if want != before {
		// Whatever was still assembling belongs to a fenced epoch.
		for _, c := range s.asm {
			if _, ok := firstMsg(sent[c.id]).(wire.Reject); !ok || !c.closed {
				s.failf("c%d (rank %d) still waiting at abandoned epoch %d", c.id, c.rank, before)
			}
		}
		s.asm = map[int]*simConn{}
	}

	// The telemetry aggregate: no tail refused, and every field of the
	// table monotone (counters) and exactly what the members reported,
	// across incarnations and same-recorder rejoins.
	for r := 0; r < s.p; r++ {
		got := s.agg.row(r, s.now.UnixNano(), 0, false, false).Row.AppendValues(nil)
		for i, f := range trace.Fields {
			if got[i] != s.want[r][i] || (f.Type == "counter" && got[i] < s.was[r][i]) {
				s.failf("rank %d aggregate: %s = %d (was %d), members reported %d", r, f.Name, got[i], s.was[r][i], s.want[r][i])
			}
		}
		s.was[r] = got
	}
	return sent
}

// wantFence: must a failure of c's generation fence it now?
func (s *fenceSim) wantFence(c *simConn) bool { return c.booked && !s.failed[c.epoch] }

func (s *fenceSim) expectFence(want bool) {
	if s.fenced != want {
		s.failf("fenced = %v, want %v", s.fenced, want)
	}
}

func (s *fenceSim) pick() *simConn {
	if len(s.open) == 0 {
		return nil
	}
	return s.open[s.rng.Intn(len(s.open))]
}

// join presents one handshake and checks the verdict against the model.
func (s *fenceSim) join(rank, epoch int, job string) {
	s.nextConn++
	c := &simConn{id: s.nextConn, rank: rank, epoch: epoch}
	s.conns[c.id] = c
	wantReject := ""
	switch {
	case job != s.opts.JobID:
		wantReject = "wrong job id"
	case epoch < s.epoch:
		wantReject = "stale epoch"
	case epoch > s.epoch:
		wantReject = "not yet current"
	case s.asm[rank] != nil || s.gens[epoch] != nil:
		wantReject = "duplicate rank"
	}
	if wantReject == "" {
		if len(s.asm) == 0 {
			s.asmSince = s.now
		}
		c.admitted, s.asm[rank] = true, c
		// Half the time the rank's process survived and rejoins with its
		// recorder; otherwise it is a relaunch with a fresh one.
		if s.recs[rank] == nil || s.rng.Intn(2) == 0 {
			s.nextRec++
			s.recs[rank] = &simRecorder{epoch: 1_700_000_000_000_000_000 + s.nextRec, vals: make([]int64, trace.NumFields), lastGang: -1}
		}
		c.rec = s.recs[rank]
		s.open = append(s.open, c)
	}
	complete := len(s.asm) == s.p
	sent := s.do(evJoin{c.id, testJoin(job, rank, epoch, s.p)})
	switch rej, _ := firstMsg(sent[c.id]).(wire.Reject); {
	case wantReject != "":
		// A rejected join — a duplicate included — touches nobody else.
		if !strings.Contains(rej.Reason, wantReject) || !c.closed || len(sent) != 1 {
			s.failf("join c%d (rank %d, epoch %d at %d): sent %v, want only a %q rejection and a close", c.id, rank, epoch, s.epoch, sent, wantReject)
		}
	case c.closed || c.booked != complete || !complete && len(sent) != 0:
		s.failf("valid join c%d (rank %d, epoch %d; gang complete: %v): closed %v, booked %v, sent %v", c.id, rank, epoch, complete, c.closed, c.booked, sent)
	}
}

func firstMsg(msgs []wire.Ctrl) wire.Ctrl {
	if len(msgs) == 0 {
		return nil
	}
	return msgs[0]
}

// lose ends c's connection (lost, or closed for a protocol violation).
func (s *fenceSim) lose(c *simConn, ev event) {
	wantFence := s.wantFence(c) && !c.left
	s.do(ev)
	if !c.closed {
		s.failf("c%d still open after %+v", c.id, ev)
	}
	s.expectFence(wantFence)
	if s.asm[c.rank] == c {
		delete(s.asm, c.rank)
	}
}

// tick advances the clock and checks the two deadlines.
func (s *fenceSim) tick(d time.Duration) {
	s.now = s.now.Add(d)
	waiting := make([]*simConn, 0, len(s.asm))
	for _, c := range s.asm {
		waiting = append(waiting, c)
	}
	due := len(waiting) > 0 && !s.now.Before(s.asmSince.Add(s.opts.JoinTimeout))
	ready := s.gens[s.epoch]
	sent := s.do(evTick{})
	if due {
		var missing []int
		for r := 0; r < s.p; r++ {
			if s.asm[r] == nil {
				missing = append(missing, r)
			}
		}
		for _, c := range waiting {
			rej, _ := firstMsg(sent[c.id]).(wire.Reject)
			if !c.closed || !strings.Contains(rej.Reason, fmt.Sprintf("rank(s) %v never completed the handshake", missing)) {
				s.failf("join deadline passed: c%d (rank %d) got %v, want a rejection naming %v", c.id, c.rank, sent[c.id], missing)
			}
		}
		s.asm = map[int]*simConn{}
	} else {
		for _, c := range waiting {
			if c.closed {
				s.failf("c%d (rank %d) dismissed before the join deadline", c.id, c.rank)
			}
		}
	}
	// Conviction by silence is complete — a heartbeat round (recognised
	// by the coordinator's own beat) fences the generation if any member
	// has been silent past SuspectAfter — and sound: the convicted member
	// really was.
	for _, c := range ready {
		if ping, _ := firstMsg(sent[c.id]).(wire.Ping); ping.Rank == wire.CoordinatorRank && !s.fenced {
			for _, v := range ready {
				if !v.closed && !v.left && s.now.Sub(v.lastBeat) > s.opts.SuspectAfter {
					s.failf("rank %d silent for %v survived a heartbeat round", v.rank, s.now.Sub(v.lastBeat))
				}
			}
		}
	}
	for _, c := range s.open {
		for _, msg := range sent[c.id] {
			if crash, ok := msg.(wire.Crash); ok && strings.Contains(crash.Reason, "sent no heartbeat") {
				if v := s.gens[c.epoch][crash.Rank]; s.now.Sub(v.lastBeat) <= s.opts.SuspectAfter {
					s.failf("rank %d convicted %v after its last valid frame (suspect after %v)", v.rank, s.now.Sub(v.lastBeat), s.opts.SuspectAfter)
				}
			}
		}
	}
}

func (s *fenceSim) run(events int) {
	for i := 0; i < events; i++ {
		c := s.pick()
		switch k := s.rng.Intn(100); {
		case k < 22: // a rank the gang still misses (or, once ready, a late duplicate)
			rank := s.rng.Intn(s.p)
			for r := 0; r < s.p; r++ {
				if s.asm[(rank+r)%s.p] == nil {
					rank = (rank + r) % s.p
					break
				}
			}
			s.join(rank, s.epoch, s.opts.JobID)
		case k < 27:
			s.join(s.rng.Intn(s.p), s.epoch, s.opts.JobID) // often a duplicate
		case k < 31:
			s.join(s.rng.Intn(s.p), s.epoch-1-s.rng.Intn(2), s.opts.JobID)
		case k < 34:
			s.join(s.rng.Intn(s.p), s.epoch+1+s.rng.Intn(2), s.opts.JobID)
		case k < 35:
			s.join(s.rng.Intn(s.p), s.epoch, "other-job")
		case k < 50:
			s.tick(time.Duration(s.rng.Intn(1500)) * time.Millisecond)
		case k < 52:
			s.tick(s.opts.JoinTimeout) // a long silence
		case k < 54:
			s.do(evAdvanceEpoch{})
		case c == nil:
		case k < 66: // heartbeat, sometimes naming the wrong rank or epoch
			hb := wire.Heartbeat{Rank: c.rank, Epoch: c.epoch, Seq: uint32(i)}
			switch s.rng.Intn(8) {
			case 0:
				hb.Rank = (c.rank + 1) % (s.p + 1)
			case 1:
				hb.Epoch++
			}
			valid := c.booked && hb.Rank == c.rank && hb.Epoch == c.epoch
			sent := s.do(evFrame{c.id, wire.Ping{Heartbeat: hb}})
			switch {
			case !c.booked:
				s.lose(c, evConnLost{c.id, nil}) // spoke before ready: already closed
			case valid:
				c.lastBeat = s.now
				if echo := firstMsg(sent[c.id]); (echo != nil) != (!c.left && !s.failed[c.epoch]) {
					s.failf("echo of c%d's beat = %v (left %v, failed %v)", c.id, echo, c.left, s.failed[c.epoch])
				}
			case len(sent) != 0:
				s.failf("a mismatched beat drew %v", sent)
			}
		case k < 80: // a beat with telemetry: a few more supersteps
			if s.newest[c.rank] != c {
				continue
			}
			// Every field a member owns moves: counters by a little,
			// gauges to anything. The coordinator's own stay zero in the
			// tail; of them only the baseline count moves, once per
			// recorder.
			rec, want := c.rec, s.want[c.rank]
			newRec := s.curRec[c.rank] != rec
			if !newRec && rec.lastGang != c.epoch {
				s.log = append(s.log, fmt.Sprintf("same-recorder rejoin: rank %d, epoch %d -> %d", c.rank, rec.lastGang, c.epoch))
			}
			s.curRec[c.rank], rec.lastGang = rec, c.epoch
			for i, f := range trace.Fields {
				switch {
				case f.Name == "baselines" && newRec:
					want[i]++
				case strings.HasPrefix(f.Feed, "coordinator"):
				case f.Type == "gauge":
					rec.vals[i] = int64(s.rng.Intn(1000)) - 1
					want[i] = rec.vals[i]
				default:
					n := int64(s.rng.Intn(3))
					rec.vals[i] += n
					want[i] += n
				}
			}
			tail := wire.AppendTelemetry(nil, &wire.Telemetry{Epoch: rec.epoch, Counters: rec.vals})
			sent := s.do(evFrame{c.id, wire.Ping{Heartbeat: wire.Heartbeat{Rank: c.rank, Epoch: c.epoch, Seq: uint32(i + 1)}, Tail: tail}})
			c.lastBeat = s.now
			if echo, ok := firstMsg(sent[c.id]).(wire.Ping); ok && echo.Tail != nil {
				s.failf("the echo of c%d's beat carries a tail", c.id)
			}
		case k < 84: // leave
			if !c.booked || c.left {
				continue
			}
			c.left, c.lastBeat = true, s.now
			sent := s.do(evFrame{c.id, wire.Leave{Rank: c.rank}})
			for _, o := range s.gens[c.epoch] {
				if got := firstMsg(sent[o.id]); (got != nil) != (o != c && !o.left && !o.closed) {
					s.failf("leave of rank %d: c%d (left %v, closed %v) got %v", c.rank, o.id, o.left, o.closed, got)
				}
			}
		case k < 88: // cooperative abort
			if !c.booked {
				continue
			}
			want := s.wantFence(c)
			s.do(evFrame{c.id, wire.Abort{Reason: "local abort"}})
			s.expectFence(want)
			c.lastBeat = s.now
		case k < 96: // the process dies
			s.lose(c, evConnLost{c.id, nil})
		default: // protocol violations: an unparsable frame, a coordinator-only message
			if s.rng.Intn(2) == 0 {
				s.lose(c, evConnLost{c.id, fmt.Errorf("%w: unknown tag", wire.ErrCtrl)})
			} else {
				s.lose(c, evFrame{c.id, wire.Book{}})
			}
		}
	}
	// Drain: with no more joins, the join deadline dismisses whatever is
	// still assembling, and silence convicts whatever is still ready.
	s.tick(s.opts.JoinTimeout)
	for i := 0; i < 8; i++ {
		s.tick(s.opts.HeartbeatInterval)
	}
	if len(s.asm) != 0 {
		s.failf("ranks still waiting for a Book after the join deadline: %v", s.asm)
	}
	if g := s.gens[s.epoch]; g != nil && !s.failed[s.epoch] {
		for _, c := range g {
			if !c.closed && !c.left {
				s.failf("c%d (rank %d) silent for 8 beats past SuspectAfter and never convicted", c.id, c.rank)
			}
		}
	}
}

// TestCoordinatorMachineFenceProperties drives the machine through seeded
// random interleavings of every event kind at p = 1, 2 and 4 and checks,
// step by step: members are admitted only at the current epoch; a
// generation becomes ready with exactly p distinct ranks or its joined
// members are rejected, naming the missing ranks, at the join deadline;
// the epoch advances exactly once per fenced generation and at most one
// Fence is emitted for it; survivors hear Dump then Crash/Abort in the
// step that fences them (so before any later Book); no action addresses
// a closed connection; duplicates are rejected without touching the
// assembling gang; and the telemetry aggregate stays monotone and
// exact across re-admitted incarnations, counting a survivor that
// rejoins with its recorder as the same incarnation.
func TestCoordinatorMachineFenceProperties(t *testing.T) {
	schedules, events := 5000, 70 // × 3 widths: 1.05M events
	if testing.Short() {
		schedules = 500
	}
	total := 0
	covered := []string{"<Book", " fenced rank", "join timed out", "sent no heartbeat", "duplicate rank", "stale epoch", "<Leave", "ingest r", "broke the control protocol", "abandoned before", "same-recorder rejoin"}
	hits := make([]int, len(covered))
	for _, p := range []int{1, 2, 4} {
		for seed := 0; seed < schedules; seed++ {
			opts := CoordinatorOptions{JobID: "job", Epoch: 2, JoinTimeout: 5 * time.Second,
				HeartbeatInterval: 500 * time.Millisecond, SuspectAfter: 2 * time.Second}
			s := &fenceSim{t: t, rng: rand.New(rand.NewSource(int64(seed)*8 + int64(p))), p: p, opts: opts,
				m: newCoordMachine(p, opts), agg: newTelemetryAgg(p), now: machineT0, epoch: opts.Epoch,
				conns: map[connID]*simConn{}, asm: map[int]*simConn{}, gens: map[int][]*simConn{}, failed: map[int]bool{},
				newest: make([]*simConn, p), recs: make([]*simRecorder, p), curRec: make([]*simRecorder, p),
				want: make([][]int64, p), was: make([][]int64, p)}
			for r := range s.want {
				s.want[r] = trace.Row{LastStep: -1}.AppendValues(nil) // a silent rank's row
				s.was[r] = make([]int64, trace.NumFields)
			}
			s.run(events)
			total += len(s.log)
			for _, line := range s.log {
				for i, what := range covered {
					if strings.Contains(line, what) {
						hits[i]++
					}
				}
			}
		}
	}
	t.Logf("%d machine steps over %d seeded schedules; steps with %q: %v", total, 3*schedules, covered, hits)
	for i, n := range hits {
		if n < schedules/10 {
			t.Errorf("the schedules hardly ever reach %q (%d steps): the generator has drifted off the protocol", covered[i], n)
		}
	}
}

// TestCoordinatorMachineDeterministic: the machine is a function of its
// event sequence — two runs of one script produce identical action
// streams (Close, which drops its connections in map order, is left off
// the script: what it closes is fixed, the order is not).
func TestCoordinatorMachineDeterministic(t *testing.T) {
	run := func() [][]action {
		m, now := newCoordMachine(4, CoordinatorOptions{JobID: "job", HeartbeatInterval: time.Second, SuspectAfter: 2 * time.Second}), machineT0
		var out [][]action
		for r := 3; r >= 0; r-- {
			out = append(out, m.step(now, evJoin{connID(10 - r), testJoin("job", r, 0, 4)}))
		}
		for i := 0; i < 4; i++ {
			now = now.Add(time.Second)
			out = append(out, m.step(now, evTick{}))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of one script differ:\n%v\n%v", a, b)
	}
}
