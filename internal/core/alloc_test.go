package core

// Allocation accounting for the batched exchange engine. The paper's
// implementations never move packets one at a time: per-(src,dst)
// buffers are exchanged whole (Appendix B). These benchmarks pin the
// allocation cost of the hot path — the 8-process shm all-to-all
// pattern — and the gate test enforces the batched engine's advantage
// over the seed's one-allocation-per-message path.
//
// Measured history (allocs per superstep, whole machine, p=8, 32
// fixed-size packets per ordered pair = 2048 messages per superstep):
//
//	seed (per-message slices):   see BENCH_exchange.json "before"
//	batched (pooled buffers):    see BENCH_exchange.json "after"

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	allocP        = 8  // processes in the all-to-all pattern
	allocPerPair  = 32 // messages per ordered (src,dst) pair per superstep
	allocGateMax  = 200
	allocSeedRef  = 2073 // measured seed-path allocs/superstep (see BENCH_exchange.json)
	allocGateRuns = 10
	// The capture gate: captureP processes exchanging captureMsg-byte
	// messages; per-capture allocation may differ by less than
	// captureSlack bytes between a 64 KiB and a 1 MiB inbox.
	captureP     = 2
	captureMsg   = 4 << 10
	captureSlack = 32 << 10
	// allocTraceOffMax bounds the tracing-disabled path: the batched
	// engine measured ~1 alloc/superstep before the recorder existed,
	// and the nil-check disabled path must keep it there (small slack
	// for runtime noise).
	allocTraceOffMax = 4
)

// exchangeSuperstep performs one all-to-all superstep: 16-byte packets
// to every destination (self included), then Sync and a full drain.
func exchangeSuperstep(c *Proc, pkt *Pkt) {
	for dst := 0; dst < allocP; dst++ {
		for k := 0; k < allocPerPair; k++ {
			c.SendPkt(dst, pkt)
		}
	}
	c.Sync()
	for {
		if _, ok := c.GetPkt(); !ok {
			break
		}
	}
}

// BenchmarkExchangeAllocs reports allocs/op = allocations per superstep
// across the whole 8-process machine (every process sends 32 packets to
// every process, then drains). Compare against BENCH_exchange.json.
func BenchmarkExchangeAllocs(b *testing.B) {
	b.ReportAllocs()
	_, err := Run(Config{P: allocP, Transport: transport.ShmTransport{}}, func(c *Proc) {
		var pkt Pkt
		pkt[0] = byte(c.ID())
		for n := 0; n < b.N; n++ {
			exchangeSuperstep(c, &pkt)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// lockstep runs a p-process machine through run in background
// goroutines, parking every process between supersteps, and hands
// drive a function that advances the whole machine by exactly one
// superstep: each process's step, built once per process by setup.
// drive must advance it exactly steps times. Measurements taken inside
// drive count the whole machine and nothing else running.
func lockstep(t *testing.T, p, steps int, run func(fn func(*Proc)) error, setup func(c *Proc) (step func()), drive func(oneSuperstep func())) {
	t.Helper()
	start := make(chan struct{})
	stepDone := make(chan struct{}, p)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(func(c *Proc) {
			step := setup(c)
			for s := 0; s < steps; s++ {
				<-start
				step()
				stepDone <- struct{}{}
			}
		})
	}()
	drive(func() {
		for i := 0; i < p; i++ {
			start <- struct{}{}
		}
		for i := 0; i < p; i++ {
			<-stepDone
		}
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// measureExchangeAllocs runs the lock-step all-to-all machine on cfg
// and returns the steady-state allocations per superstep across the
// whole machine: testing.AllocsPerRun triggers one lock-step superstep
// per run and counts the whole machine's allocations.
func measureExchangeAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	const warmup = 4 // pre-grow buffers and stats before measuring
	var avg float64
	// AllocsPerRun invokes the function once to warm up, then
	// allocGateRuns more times.
	lockstep(t, allocP, warmup+1+allocGateRuns,
		func(fn func(*Proc)) error { _, err := Run(cfg, fn); return err },
		func(c *Proc) func() {
			pkt := new(Pkt)
			pkt[0] = byte(c.ID())
			return func() { exchangeSuperstep(c, pkt) }
		},
		func(oneSuperstep func()) {
			for s := 0; s < warmup; s++ {
				oneSuperstep()
			}
			avg = testing.AllocsPerRun(allocGateRuns, oneSuperstep)
		})
	return avg
}

// TestExchangeAllocGate is the allocation regression gate: the steady-
// state all-to-all superstep on shm must stay at least 10x below the
// seed path's one-allocation-per-message cost — and, since the trace
// recorder landed, the tracing-DISABLED path (cfg.Trace == nil, every
// instrumentation site a nil check) must not add a single allocation
// above the batched engine's measured baseline.
func TestExchangeAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate skipped in -short mode and under -race, where sync.Pool drops items at random")
	}
	avg := measureExchangeAllocs(t, Config{P: allocP, Transport: transport.ShmTransport{}})
	t.Logf("allocs per all-to-all superstep (p=%d, %d msgs/pair): %.1f", allocP, allocPerPair, avg)
	if avg > allocGateMax {
		t.Errorf("alloc gate: %.1f allocs/superstep, want <= %d (seed path was ~%d; batched engine must hold a >=10x reduction)",
			avg, allocGateMax, allocSeedRef)
	}
	if avg*10 > allocSeedRef {
		t.Errorf("alloc gate: %.1f allocs/superstep is not >=10x below the seed's ~%d", avg, allocSeedRef)
	}
	// The pre-instrumentation engine measured ~1 alloc/superstep (see
	// BENCH_exchange.json "after"); with tracing disabled the recorder
	// must be invisible here.
	if avg > allocTraceOffMax {
		t.Errorf("alloc gate: %.1f allocs/superstep with tracing disabled, want <= %d — the nil-check disabled path must add zero allocations over the batched baseline",
			avg, allocTraceOffMax)
	}
	// The always-on flight recorder must hold the same bound: ring
	// writes are pre-allocated atomic slots and the histograms are
	// fixed buckets, so arming it costs zero allocations on the hot
	// path — the whole premise of keeping it on in production runs.
	flight := measureExchangeAllocs(t, Config{P: allocP, Transport: transport.ShmTransport{}, Trace: trace.NewFlight(allocP)})
	t.Logf("allocs per all-to-all superstep with the flight recorder armed: %.1f", flight)
	if flight > allocTraceOffMax {
		t.Errorf("alloc gate: %.1f allocs/superstep with the flight recorder armed, want <= %d — the ring and histogram path must not allocate",
			flight, allocTraceOffMax)
	}
	// The telemetry push path must be equally invisible: while the
	// machine runs, a pusher goroutine snapshots every rank's counters
	// and delta-encodes a wire frame every millisecond, exactly as a
	// cluster member's pushTelemetry does (Metrics.Rank by value,
	// Row.AppendValues, Hist.AppendCounts and TelemetryEncoder.AppendEncode
	// into reused buffers). AllocsPerRun counts the whole process, so any
	// allocation in the pusher shows up here too — the gate holds the
	// same tracing-off bound with live telemetry armed.
	rec := trace.NewFlight(allocP)
	met := rec.Metrics()
	var snap wire.Telemetry
	var enc wire.TelemetryEncoder
	var frame []byte
	push := func(r int) {
		snap.Counters = met.Rank(r).AppendValues(snap.Counters[:0])
		snap.StepDur = met.StepDur.AppendCounts(snap.StepDur[:0])
		snap.SyncWait = met.SyncWait.AppendCounts(snap.SyncWait[:0])
		frame = enc.AppendEncode(frame[:0], &snap)
	}
	push(0) // the first frame sizes the buffers
	if n := testing.AllocsPerRun(100, func() { push(1) }); n != 0 {
		t.Errorf("alloc gate: a steady-state telemetry push allocates %.1f times, want 0", n)
	}
	stop := make(chan struct{})
	var pushWG sync.WaitGroup
	pushWG.Add(1)
	go func() {
		defer pushWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for r := 0; r < allocP; r++ {
					push(r)
				}
			}
		}
	}()
	telem := measureExchangeAllocs(t, Config{P: allocP, Transport: transport.ShmTransport{}, Trace: rec})
	close(stop)
	pushWG.Wait()
	t.Logf("allocs per all-to-all superstep with a 1ms telemetry pusher armed: %.1f", telem)
	if telem > allocTraceOffMax {
		t.Errorf("alloc gate: %.1f allocs/superstep with live telemetry armed, want <= %d — the push path (snapshot + delta encode) must not allocate",
			telem, allocTraceOffMax)
	}
}

// captureBytes runs a captureP-process shm machine under RunRecoverable
// with a snapshot at every boundary, each process receiving inbox bytes
// of 4 KiB messages per superstep (an equal share from every source),
// and returns the steady-state bytes the whole program allocates per
// capture (one rank's record at one boundary). The collector is off
// while it measures, so the exchange's pooled buffers survive and only
// fresh allocations count. It is off for a settle phase first, long
// enough for the pool to reach its high-water mark: the flushers'
// fsyncs move rank goroutines between Ps, and a sync.Pool cannot hand
// out a buffer parked in another P's private slot, so the pool needs
// some spares before a superstep never misses.
func captureBytes(t *testing.T, inbox int) float64 {
	t.Helper()
	const warmup, settle, runs = 3, 10, 5
	cfg := Config{P: captureP, Transport: transport.ShmTransport{},
		Checkpoint: &CheckpointConfig{Dir: t.TempDir(), Every: 1}}
	hooks := Hooks{Save: func(c *Proc, buf []byte) ([]byte, bool) {
		return append(buf, byte(c.ID())), true
	}}
	var perStep float64
	lockstep(t, captureP, warmup+settle+runs,
		func(fn func(*Proc)) error { _, err := RunRecoverable(cfg, fn, hooks); return err },
		func(c *Proc) func() {
			msg := make([]byte, captureMsg)
			return func() {
				for dst := 0; dst < captureP; dst++ {
					for n := 0; n < inbox/captureP/captureMsg; n++ {
						c.Send(dst, msg)
					}
				}
				c.Sync()
				for {
					if _, ok := c.Recv(); !ok {
						break
					}
				}
			}
		},
		func(oneSuperstep func()) {
			for s := 0; s < warmup; s++ {
				oneSuperstep()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for s := 0; s < settle; s++ {
				oneSuperstep()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for s := 0; s < runs; s++ {
				oneSuperstep()
			}
			runtime.ReadMemStats(&after)
			perStep = float64(after.TotalAlloc-before.TotalAlloc) / runs
		})
	return perStep / captureP
}

// TestCheckpointCaptureAllocGate: capturing a cut copies the app's
// state and nothing else. The inbox's batches are streamed from the
// transport's own buffers into the record file, so the bytes one
// capture allocates do not depend on how much the inbox holds: a
// 1 MiB inbox costs what a 64 KiB one does, to within a small
// constant (file names, the os.File, the staged header). Re-framing
// the inbox or assembling the record in memory grows with it, at
// several times its size.
func TestCheckpointCaptureAllocGate(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc gate skipped in -short mode and under -race, where sync.Pool drops items at random")
	}
	small := captureBytes(t, 64<<10)
	large := captureBytes(t, 1<<20)
	t.Logf("bytes allocated per capture (p=%d, shm): %.0f with a 64 KiB inbox, %.0f with a 1 MiB inbox", captureP, small, large)
	if d := large - small; d >= captureSlack || d <= -captureSlack {
		t.Errorf("capture alloc gate: a 1 MiB inbox allocates %.0f bytes per capture, a 64 KiB one %.0f — want equal to within %d: the inbox must be streamed, not copied",
			large, small, captureSlack)
	}
}
