package transport

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
)

const (
	clusterDefaultJoinTimeout = 30 * time.Second
	// ctrlWriteTimeout bounds control writes so one wedged peer cannot
	// stall the coordinator's fan-out to the others.
	ctrlWriteTimeout = 5 * time.Second
	// clusterDefaultHeartbeatInterval is the default liveness beat
	// period on the control plane.
	clusterDefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultSuspectAfter is the default suspicion timeout: a ready
	// member silent for this long is declared crashed. Generous relative
	// to the beat interval so scheduler hiccups and paused test
	// processes are not convicted.
	DefaultSuspectAfter = 5 * time.Second
)

// ctrlPeer is one end of a control connection: typed frames with a
// bounded write.
type ctrlPeer struct {
	nc net.Conn
	*wire.CtrlConn
}

func newCtrlPeer(nc net.Conn) *ctrlPeer { return &ctrlPeer{nc, wire.NewCtrlConn(nc)} }

func (p *ctrlPeer) send(msg wire.Ctrl) error {
	p.nc.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout))
	return p.Write(msg)
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
	// valid control frame (beat or otherwise) is older than this is
	// declared crashed and fanned out to the gang, long before any sync
	// watchdog. 0 means DefaultSuspectAfter; negative disables
	// suspicion (beats still flow for member-side miss accounting).
	SuspectAfter time.Duration

	// StatusAddr, when set, serves the aggregated live-telemetry plane
	// over HTTP: /status (job-level JSON: per-rank last superstep,
	// live/suspect state, the online (g, L) fit) and /metrics (rank-
	// labeled Prometheus families — one scrape target for the whole
	// job). The coordinator aggregates the telemetry its members' beats
	// carry whether or not it is served; a member without a recorder
	// beats bare, and its row stays silent. ":0" binds an ephemeral
	// port (see Coordinator.StatusURL).
	StatusAddr string

	// closeOnIdle shuts the coordinator down once a ready generation's
	// members have all disconnected (the in-process ClusterTransport
	// sets it; a launcher that relaunches generations keeps it off).
	closeOnIdle bool
}

// orDefault resolves a duration option: 0 means def, negative means
// off (0).
func orDefault(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return max(v, 0)
}

// Coordinator is the membership owner of one cluster job. Every
// decision is coordMachine's; this type is the shell around it: an
// accept goroutine, one reader goroutine per connection and the status
// server post work to inbox, and one loop goroutine owns the machine,
// the sockets' write side and the telemetry aggregate.
type Coordinator struct {
	ln        net.Listener
	statusLn  net.Listener
	statusSrv *http.Server

	inbox  chan func()    // work for the loop goroutine
	fences chan Fence     // apply → Fences()
	done   chan struct{}  // closed when loop has exited
	wg     sync.WaitGroup // every goroutine started here
	// Owned by the loop goroutine; frozen once done is closed.
	m     *coordMachine
	telem *telemetryAgg // coordinator-scoped, so the view survives warm restarts
	peers map[connID]*ctrlPeer
	// observe, when set, sees each event and its actions after the loop
	// has performed them (tests order themselves on it).
	observe func(event, []action)
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
	c := &Coordinator{
		ln:    ln,
		inbox: make(chan func()), fences: make(chan Fence, maxUnreadFences), done: make(chan struct{}),
		m: newCoordMachine(p, opts), telem: newTelemetryAgg(p), peers: make(map[connID]*ctrlPeer),
	}
	if opts.StatusAddr != "" {
		if c.statusLn, err = net.Listen("tcp", opts.StatusAddr); err != nil {
			ln.Close()
			return nil, fmt.Errorf("cluster: status listen %s: %w", opts.StatusAddr, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(c.StatusDoc())
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			c.StatusDoc().writeMetrics(w)
		})
		c.statusSrv = &http.Server{Handler: mux}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.statusSrv.Serve(c.statusLn)
		}()
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.loop()
	return c, nil
}

// Addr returns the coordinator's control address for ClusterConfig.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// StatusURL returns the base URL of the coordinator's status server
// ("" when none is armed).
func (c *Coordinator) StatusURL() string {
	if c.statusLn == nil {
		return ""
	}
	return "http://" + c.statusLn.Addr().String()
}

// Epoch returns the generation currently being admitted.
func (c *Coordinator) Epoch() (epoch int) {
	c.call(func() { epoch = c.m.epoch })
	return epoch
}

// AdvanceEpoch starts the next gang generation (a recovery relaunch):
// handshakes carrying the previous epoch are rejected from now on, so a
// straggler process of the crashed generation cannot rejoin the new
// gang. It returns the new epoch.
func (c *Coordinator) AdvanceEpoch() (epoch int) {
	c.call(func() {
		c.apply(evAdvanceEpoch{})
		epoch = c.m.epoch
	})
	return epoch
}

// Fences delivers one Fence per failed generation, in order, after the
// epoch has advanced; a launcher selects on it.
func (c *Coordinator) Fences() <-chan Fence { return c.fences }

// maxUnreadFences bounds the fences awaiting a reader (the in-process
// transport never reads); past it the newest is dropped and its reader
// recovers as if the fence were late.
const maxUnreadFences = 64

// StatusDoc renders the coordinator's live job-level view.
func (c *Coordinator) StatusDoc() (doc StatusDoc) {
	c.call(func() { doc = c.telem.status(c.m, time.Now()) })
	return doc
}

// Close shuts the coordinator down, disconnecting any joined members,
// and returns once every goroutine it started has exited.
func (c *Coordinator) Close() error {
	c.post(func() { c.apply(evClose{}) })
	c.wg.Wait()
	return nil
}

// post hands fn to the loop; false means the loop has already exited.
func (c *Coordinator) post(fn func()) bool {
	select {
	case c.inbox <- fn:
		return true
	case <-c.done:
		return false
	}
}

// call runs fn on the loop goroutine, or — once the loop has exited and
// the state it owned is frozen — directly.
func (c *Coordinator) call(fn func()) {
	ran := make(chan struct{})
	if c.post(func() { fn(); close(ran) }) {
		<-ran
	} else {
		fn()
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for id := connID(1); ; id++ {
		nc, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		peer := newCtrlPeer(nc)
		if !c.post(func() { c.peers[id] = peer }) {
			nc.Close()
			return
		}
		c.wg.Add(1)
		go c.read(id, peer)
	}
}

// read turns one connection's frames into events. The first must be a
// Join within the join timeout, so a peer that connects and never
// completes the handshake is dropped, not parked.
func (c *Coordinator) read(id connID, peer *ctrlPeer) {
	defer c.wg.Done()
	step := func(ev event) { c.post(func() { c.apply(ev) }) }
	peer.nc.SetReadDeadline(time.Now().Add(c.m.opts.JoinTimeout)) // opts never change
	msg, err := peer.Read()
	if join, ok := msg.(wire.Join); ok {
		peer.nc.SetReadDeadline(time.Time{})
		step(evJoin{id, join})
		for {
			if msg, err = peer.Read(); err != nil {
				break
			}
			step(evFrame{id, msg})
		}
	}
	step(evConnLost{id, err})
}

// loop is the one goroutine that steps the machine.
func (c *Coordinator) loop() {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for !c.m.closed {
		var tick <-chan time.Time
		if at := c.m.deadline(); !at.IsZero() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(at))
			tick = timer.C
		}
		select {
		case fn := <-c.inbox:
			fn()
		case <-tick:
			c.apply(evTick{})
		}
	}
	c.ln.Close()
	if c.statusSrv != nil {
		c.statusSrv.Close()
	}
	for _, peer := range c.peers {
		peer.nc.Close() // connections that never got as far as a Join
	}
	close(c.done)
}

// apply steps the machine and performs its actions.
func (c *Coordinator) apply(ev event) {
	now := time.Now()
	acts := c.m.step(now, ev)
	for _, act := range acts {
		switch act := act.(type) {
		case actSend:
			// On a failed write the reader reports the loss.
			if peer := c.peers[act.conn]; peer != nil && peer.send(act.msg) != nil {
				peer.nc.Close()
			}
		case actCloseConn:
			if peer := c.peers[act.conn]; peer != nil {
				peer.nc.Close()
				delete(c.peers, act.conn)
			}
		case actIngest:
			c.telem.ingest(act.hb, act.tail, now)
		case Fence:
			if act.Rank >= 0 {
				c.telem.convict(act.Rank, act.Reason)
			}
			select {
			case c.fences <- act:
			default:
			}
		}
	}
	if c.observe != nil {
		c.observe(ev, acts)
	}
}
