package main

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// Outside-in spans: the traced pass wraps the workload's transport in
// spanTransport, which records one span per Open, Sync and Close and one
// aggregated span per superstep for its Sends, per rank. Every span of a
// run carries the run's id; its parent is the spanRun the benchmark
// records around the Parallel / core.Run call. Spans live in memory in
// slices that keep their capacity from run to run, so a steady-state run
// records without allocating; fold reduces one run's spans to the
// per-layer times after the run's clock has stopped.

type spanKind uint8

const (
	spanRun   spanKind = iota // the whole Parallel / core.Run call (parent of the rest)
	spanOpen                  // Transport.Open: listeners and connections
	spanSend                  // all Sends of one rank in one superstep
	spanSync                  // one Endpoint.Sync
	spanClose                 // one Endpoint.Close
)

// sendSampleStride: one Send in 31 is timed, because two clock reads
// cost about as much as a 16-byte Send. Counts and bytes stay exact;
// the time is scaled up from the timed calls when a run is folded. The
// stride is prime so that it does not lock onto a program's pattern:
// hrel issues 3 × 64 Sends per superstep, and a stride of 32 would time
// the first Send to a destination, which fetches the batch buffer,
// every time.
const sendSampleStride = 31

// span is kept to 48 bytes: ocean-130-shm records ~10k of them in a
// 14 ms run, and the stores to memory are most of what tracing costs
// there. A span's run is the store's current run; its rank is the index
// of the slice it sits in.
type span struct {
	start, end int64 // ns on the store's clock
	// spanSend only: summed duration of the timed messages, payload
	// bytes, messages, and how many of the messages were timed.
	busy, bytes int64
	n, timed    int32
	step        int32 // superstep, 0-based; -1 where it does not apply
	kind        spanKind
}

// spanStore holds the spans of the run in progress, numbered run. top is written by
// the goroutine that calls core.Run; ranks[r] only by rank r's
// goroutine. core.Run's WaitGroup orders both before fold reads them.
type spanStore struct {
	epoch time.Time
	run   int32
	top   []span
	ranks [][]span
}

func newSpanStore(p int) *spanStore {
	return &spanStore{epoch: time.Now(), ranks: make([][]span, p)}
}

func (s *spanStore) now() int64 { return int64(time.Since(s.epoch)) }

// begin starts a new run: it drops the previous run's spans but keeps
// the slices' capacity.
func (s *spanStore) begin() {
	s.run++
	s.top = s.top[:0]
	for r := range s.ranks {
		s.ranks[r] = s.ranks[r][:0]
	}
}

// spanTransport decorates a transport for the traced pass. It does not
// forward TraceSetter/ProfSetter/DumpSetter: the benchmark never arms
// core's trace, profile or postmortem hooks.
type spanTransport struct {
	base  transport.Transport
	store *spanStore
}

func (t spanTransport) Name() string { return t.base.Name() }

func (t spanTransport) Open(p int) ([]transport.Endpoint, error) {
	return t.OpenGroup(p, transport.GroupOptions{})
}

// OpenGroup implements transport.GroupTransport so core's job identity
// reaches the base transport exactly as in the undecorated pass.
func (t spanTransport) OpenGroup(p int, opts transport.GroupOptions) ([]transport.Endpoint, error) {
	st := t.store
	start := st.now()
	eps, err := transport.OpenWithOptions(t.base, p, opts)
	if err != nil {
		return nil, err
	}
	opened := st.now()
	st.top = append(st.top, span{kind: spanOpen, step: -1, start: start, end: opened})
	wrapped := make([]transport.Endpoint, len(eps))
	for i, ep := range eps {
		wrapped[i] = &spanEndpoint{Endpoint: ep, store: st, rank: int32(ep.ID()), last: opened}
	}
	return wrapped, nil
}

// spanEndpoint is confined to its rank's goroutine like every Endpoint.
type spanEndpoint struct {
	transport.Endpoint
	store *spanStore
	rank  int32
	step  int32
	skip  int   // Sends to pass untimed before the next timed one
	last  int64 // when the previous transport call on this rank returned
	send  span  // the current superstep's aggregate
}

func (e *spanEndpoint) add(sp span) {
	e.store.ranks[e.rank] = append(e.store.ranks[e.rank], sp)
}

func (e *spanEndpoint) Send(dst int, msg []byte) {
	if e.skip == 0 {
		e.skip = sendSampleStride
		t0 := e.store.now()
		e.Endpoint.Send(dst, msg)
		e.send.busy += e.store.now() - t0
		e.send.timed++
	} else {
		e.Endpoint.Send(dst, msg)
	}
	e.skip--
	e.send.n++
	e.send.bytes += int64(len(msg))
}

// flushSend closes the superstep's send aggregate at now, the entry of
// the Sync or Close that ends it. The span covers the segment the Sends
// were issued in, from the previous transport call's return.
func (e *spanEndpoint) flushSend(now int64) {
	if e.send.n > 0 {
		e.send.kind, e.send.step = spanSend, e.step
		e.send.start, e.send.end = e.last, now
		e.add(e.send)
		e.send = span{}
	}
}

func (e *spanEndpoint) Sync() (*transport.Inbox, error) {
	start := e.store.now()
	e.flushSend(start)
	in, err := e.Endpoint.Sync()
	e.last = e.store.now()
	e.add(span{kind: spanSync, step: e.step, start: start, end: e.last})
	e.step++
	return in, err
}

func (e *spanEndpoint) Close() error {
	start := e.store.now()
	e.flushSend(start)
	err := e.Endpoint.Close()
	e.add(span{kind: spanClose, step: -1, start: start, end: e.store.now()})
	return err
}

// layerTimes is one run's fold. Times are nanoseconds, each the mean
// over ranks of that rank's sum; counts are totals over all ranks.
type layerTimes struct {
	parent float64 // the spanRun's duration
	open   float64
	close  float64
	send   float64 // time inside Send, scaled up from the sampled calls
	// wait: per superstep, from this rank's Sync entry until the last
	// rank entered — time spent waiting for other processes.
	wait float64
	// exchange: per superstep, from the last rank's entry until this
	// rank's Sync returned — data movement plus barrier release.
	exchange float64
	// between: time outside every transport call, from Open's return to
	// Close's entry — application code plus core's bookkeeping. It
	// includes send.
	between   float64
	syncs     int
	sendMsgs  int64
	sendBytes int64
}

// named is the part of the parent span the fold attributes to a layer;
// the rest (goroutine start and join, serial code around core.Run) is
// the remainder.
func (l layerTimes) named() float64 {
	return l.open + l.between + l.wait + l.exchange + l.close
}

// fold reduces one run's spans. Every rank must have recorded the same
// number of Syncs and exactly one Close.
func fold(top []span, ranks [][]span) (layerTimes, error) {
	var l layerTimes
	openEnd := int64(-1)
	for _, sp := range top {
		switch sp.kind {
		case spanRun:
			l.parent = float64(sp.end - sp.start)
		case spanOpen:
			l.open += float64(sp.end - sp.start)
			openEnd = sp.end
		}
	}
	if openEnd < 0 {
		return l, fmt.Errorf("fold: no Open span")
	}
	p := len(ranks)
	syncs := make([][]span, p)
	for r, spans := range ranks {
		var closes int
		var busy, timed, n float64
		cursor := openEnd // end of the previous transport call on this rank
		for _, sp := range spans {
			switch sp.kind {
			case spanSend:
				busy, timed, n = busy+float64(sp.busy), timed+float64(sp.timed), n+float64(sp.n)
				l.sendMsgs += int64(sp.n)
				l.sendBytes += sp.bytes
			case spanSync:
				syncs[r] = append(syncs[r], sp)
				l.between += float64(sp.start - cursor)
				cursor = sp.end
			case spanClose:
				closes++
				l.close += float64(sp.end - sp.start)
				l.between += float64(sp.start - cursor)
			}
		}
		if closes != 1 {
			return l, fmt.Errorf("fold: rank %d recorded %d Close spans", r, closes)
		}
		if len(syncs[r]) != len(syncs[0]) {
			return l, fmt.Errorf("fold: rank %d recorded %d Syncs, rank 0 %d", r, len(syncs[r]), len(syncs[0]))
		}
		if timed > 0 {
			l.send += busy * n / timed
		}
	}
	l.syncs = len(syncs[0])
	for s := 0; s < l.syncs; s++ {
		last := syncs[0][s].start
		for r := 1; r < p; r++ {
			last = max(last, syncs[r][s].start)
		}
		for r := 0; r < p; r++ {
			l.wait += float64(last - syncs[r][s].start)
			l.exchange += float64(syncs[r][s].end - last)
		}
	}
	for _, v := range []*float64{&l.close, &l.send, &l.wait, &l.exchange, &l.between} {
		*v /= float64(p)
	}
	return l, nil
}
