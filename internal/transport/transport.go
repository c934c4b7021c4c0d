// Package transport provides the communication substrates that back the
// Green BSP library.
//
// The paper describes three implementations of the library (Appendix B):
// a shared-memory version (SGI Challenge), an MPI version (NEC Cenju) and
// a TCP version (PC LAN). This package reproduces all three structures —
// Shm, Xchg and TCP — plus Sim, a deterministic single-processor
// round-robin scheduler that plays the role of the paper's "IPC
// shared-memory single-processor simulation" used to measure work depths,
// and Cluster, the multi-process extension of the TCP structure where
// each rank is its own OS process (see ClusterTransport).
//
// A Transport opens p Endpoints, one per BSP process. During a superstep
// a process combines outgoing messages with Send into one contiguous
// framed batch per destination; Sync ends the superstep, exchanges at
// most one such buffer per (src,dst) pair, synchronizes, and returns an
// Inbox over the batches addressed to this process. This is exactly the
// BSP delivery contract — "a packet sent in one superstep is delivered
// to the destination processor at the beginning of the next superstep" —
// implemented with the paper's message combining: per-pair buffers are
// shipped whole (B.2, B.3) or deposited into coarse per-writer blocks
// (B.1), never one packet at a time.
//
// Every endpoint embeds one exchange engine (exchange.go) and adds only
// its link: how a batch crosses from writer to reader. Rank membership
// and lifecycle — who joined, abort fan-out, who has detached — live in
// a process group (group.go); every Endpoint holds a GroupMember.
// In-process transports compose with a LocalGroup; the cluster
// transport implements the same membership contract over a coordinator
// and TCP handshake frames (cluster.go).
//
// Buffer ownership: Send copies msg into the batch, so the caller may
// reuse msg immediately. Inbox frame views are valid until the caller's
// next Sync or Close, which recycles the underlying buffers into a
// shared sync.Pool; see Inbox.
//
// ChaosTransport decorates any of the above with seeded, deterministic
// fault injection (delays, stalls, forced aborts, hard crashes;
// see FaultPlan), and a shared conformance suite checks the delivery
// contract on every transport, clean and chaos-wrapped alike.
package transport

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/trace"
)

// ErrAborted is returned by Sync when a peer process aborted (panicked)
// and the superstep can never complete.
var ErrAborted = errors.New("transport: run aborted by peer failure")

// Endpoint is one BSP process's connection to its peers. Endpoints are
// not safe for concurrent use; each belongs to exactly one goroutine.
type Endpoint interface {
	// ID returns this process's rank in [0, P).
	ID() int
	// P returns the number of processes.
	P() int
	// Begin blocks until this process may start executing. All
	// transports except Sim return immediately; Sim admits processes
	// one at a time.
	Begin()
	// Send appends msg to the contiguous per-destination batch for the
	// current superstep (message combining). msg is copied; the caller
	// may reuse it immediately. Sending to self is allowed.
	Send(dst int, msg []byte)
	// Sync ends the current superstep: it exchanges at most one
	// contiguous buffer per (src,dst) pair, synchronizes with all
	// peers, and returns the Inbox of messages addressed to this
	// process during the superstep that just ended. Calling Sync (or
	// Close) invalidates the previous Inbox and recycles its buffers;
	// frame views obtained from it must not be used afterwards.
	Sync() (*Inbox, error)
	// Abort marks the run as failed and unblocks peers stuck in Sync.
	// It is called when the process function panics.
	Abort()
	// Close releases this endpoint's resources. Close must be called
	// exactly once, after the process function returns. A process that
	// finishes early keeps participating in barriers until all peers
	// close; Close for such transports detaches the process.
	Close() error
}

// TraceSetter is implemented by endpoints that can emit per-rank
// observability events: one trace.Pair event per (src,dst) batch
// handed over (bytes + frame count), transport-level exchange spans,
// and injected chaos faults. core installs the buffer after Open when
// tracing is armed; SetTrace must be called from the rank's own
// goroutine before the endpoint's first Send or Sync. A nil buffer
// (or never calling SetTrace) keeps the endpoint on its untraced path,
// which costs a nil check only.
type TraceSetter interface {
	SetTrace(*trace.Buf)
}

// DumpSetter is implemented by endpoints whose membership plane can
// request a postmortem dump: the cluster coordinator broadcasts a
// ctrl "dump" frame when it fails a generation, and the member invokes
// the installed hook so survivors persist their flight rings while the
// evidence is fresh — not only the rank whose process noticed the
// failure first. core installs the hook after Open when
// Config.Postmortem is armed. Unlike SetTrace, the hook is invoked
// from a control-plane goroutine, not the rank goroutine; it must be
// concurrency-safe and tolerate duplicate invocations (the local
// failure path dumps too, deduplicated by the hook's owner).
type DumpSetter interface {
	SetDump(func(reason string))
}

// Transport creates connected endpoint groups.
type Transport interface {
	// Name identifies the transport ("shm", "xchg", "tcp", "sim",
	// "cluster").
	Name() string
	// Open creates p connected endpoints. Endpoint i must be used by
	// exactly one goroutine.
	Open(p int) ([]Endpoint, error)
}

// registry is the single source of truth for the named transports:
// New, Names and the registry-driven test helpers all derive from it.
var registry = []struct {
	name  string
	build func() Transport
}{
	{"shm", func() Transport { return ShmTransport{} }},
	{"xchg", func() Transport { return XchgTransport{} }},
	{"tcp", func() Transport { return TCPTransport{} }},
	{"sim", func() Transport { return SimTransport{} }},
	{"cluster", func() Transport { return ClusterTransport{} }},
}

// New returns a transport by name. Supported names are "shm" (shared
// memory, paper B.1), "xchg" (buffered pairwise exchange in the style of
// the MPI version, paper B.2), "tcp" (real TCP loopback sockets with the
// staged total-exchange schedule, paper B.3), "sim" (deterministic
// single-processor simulation) and "cluster" (the multi-process TCP
// machine; in-process Open runs the full coordinator + handshake
// protocol over loopback, see ClusterTransport). A "chaos:" prefix
// ("chaos:tcp", "chaos:shm", ...) wraps the named base transport in a
// ChaosTransport with DefaultFaultPlan; use ChaosTransport directly for
// a custom FaultPlan.
func New(name string) (Transport, error) {
	if base, ok := strings.CutPrefix(name, "chaos:"); ok {
		tr, err := New(base)
		if err != nil {
			return nil, fmt.Errorf("transport: unknown chaos base %q in %q (valid bases: %s)",
				base, name, strings.Join(Names(), ", "))
		}
		return NewChaosTransport(tr, DefaultFaultPlan()), nil
	}
	for _, r := range registry {
		if r.name == name {
			return r.build(), nil
		}
	}
	return nil, fmt.Errorf("transport: unknown transport %q (valid: %s, or chaos:<base>)",
		name, strings.Join(Names(), ", "))
}

// Names lists the available transports.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}
