package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosProxy is a TCP interposer for fault injection on real sockets.
// ChaosTransport injects faults inside the process — above the socket —
// so it can never produce the network pathologies a LAN deployment
// actually sees. The proxy sits between a dialer and a target listener
// (a coordinator, a rank's data port) and produces them on demand:
//
//   - Partition: packets vanish in both directions for a window. In-
//     flight connections hang (no FIN, no RST — exactly what a routing
//     failure looks like), new connections are not relayed to the
//     target until the partition heals.
//   - Half-open: one direction silently stops flowing while the
//     connection stays established — the peer looks connected but its
//     traffic never arrives, which is the failure liveness heartbeats
//     exist to detect.
//   - Slow link: every relayed chunk is delayed by a configured amount.
//   - Reset: every active connection is torn down mid-stream with an
//     RST (SO_LINGER 0), not a graceful FIN.
//
// Faults engage and heal at method-call granularity; the soak test in
// internal/ckpt drives them from a seeded schedule. The zero fault state relays
// transparently.
type ChaosProxy struct {
	target string
	ln     net.Listener

	delayNs   atomic.Int64 // per-chunk relay delay (slow link)
	partUntil atomic.Int64 // unix nanos until which the link is partitioned
	stallTo   atomic.Bool  // half-open: client->target direction frozen
	stallFrom atomic.Bool  // half-open: target->client direction frozen

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewChaosProxy starts a proxy on an ephemeral loopback port relaying
// to target. Close releases it.
func NewChaosProxy(target string) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaosproxy: listen: %w", err)
	}
	p := &ChaosProxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address — dial this instead of the
// target to route traffic through the fault injector.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// SetDelay installs a per-chunk relay delay (0 restores full speed).
func (p *ChaosProxy) SetDelay(d time.Duration) { p.delayNs.Store(int64(d)) }

// Partition drops all traffic in both directions for d: established
// connections hang without any close notification, and connections
// accepted during the window are not relayed to the target until it
// ends. Calling Partition again extends or shortens the window.
func (p *ChaosProxy) Partition(d time.Duration) {
	p.partUntil.Store(time.Now().Add(d).UnixNano())
}

// Heal lifts a partition immediately.
func (p *ChaosProxy) Heal() { p.partUntil.Store(0) }

// StallToTarget freezes (true) or thaws (false) the client->target
// direction: a half-open link where the peer looks connected but its
// bytes never arrive.
func (p *ChaosProxy) StallToTarget(on bool) { p.stallTo.Store(on) }

// StallFromTarget freezes (true) or thaws (false) the target->client
// direction.
func (p *ChaosProxy) StallFromTarget(on bool) { p.stallFrom.Store(on) }

// ResetAll tears down every active relayed connection mid-stream with
// an RST (SO_LINGER 0) and reports how many links it severed. New
// connections relay normally afterwards.
func (p *ChaosProxy) ResetAll() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for c := range p.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
		delete(p.conns, c)
		n++
	}
	return n / 2 // each link is a (client, target) conn pair
}

// Close stops accepting, severs every active link and waits for the
// relay goroutines to drain.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.ResetAll()
	p.wg.Wait()
	return err
}

func (p *ChaosProxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *ChaosProxy) partitioned() bool {
	return time.Now().UnixNano() < p.partUntil.Load()
}

// track registers a conn for ResetAll; it reports false (and closes
// the conn) if the proxy is already closed.
func (p *ChaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *ChaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *ChaosProxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handle(client)
	}
}

func (p *ChaosProxy) handle(client net.Conn) {
	defer p.wg.Done()
	// A partition loses the SYN: hold the accepted conn un-relayed
	// until the window ends (the dialer sees an established-but-silent
	// connection, as it would behind a NAT that accepted the SYN before
	// the route died).
	for p.partitioned() {
		if p.isClosed() {
			client.Close()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	target, err := net.DialTimeout("tcp", p.target, 10*time.Second)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client) || !p.track(target) {
		client.Close()
		target.Close()
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pipe(target, client, &p.stallTo) }()
	go func() { defer wg.Done(); p.pipe(client, target, &p.stallFrom) }()
	wg.Wait()
	p.untrack(client)
	p.untrack(target)
	client.Close()
	target.Close()
}

// pipe relays src to dst chunk by chunk, honoring the fault state. The
// gate (partition or this direction's half-open stall) is re-checked
// every 50ms via a read deadline, so a fault engaged mid-flight takes
// effect even while the relay is blocked waiting for bytes.
func (p *ChaosProxy) pipe(dst, src net.Conn, stalled *atomic.Bool) {
	gated := func() bool { return p.partitioned() || stalled.Load() }
	buf := make([]byte, 32<<10)
	for {
		if gated() {
			if p.isClosed() {
				return
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		src.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := src.Read(buf)
		if n > 0 {
			if d := time.Duration(p.delayNs.Load()); d > 0 {
				time.Sleep(d)
			}
			// A fault engaged between read and write holds the chunk:
			// partitioned packets are delayed, not reordered away.
			for gated() {
				if p.isClosed() {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// EOF (or a real error): propagate the half-close so the
			// other side observes it, and let the opposite pipe keep
			// draining until its own side ends.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}
