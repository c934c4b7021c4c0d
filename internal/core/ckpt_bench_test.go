package core

// Checkpoint overhead accounting: the same 8-process all-to-all
// superstep as BenchmarkExchangeAllocs, run with capture at every
// boundary versus capture disabled. The delta is the full cost of a
// durable global snapshot per superstep — the reference check,
// streaming the kept state, the inbox's batches and crc into a
// temporary file, and the flusher's fsync → rename → directory fsync,
// which overlaps the next supersteps until its queue is full — and is
// recorded in BENCH_ckpt.json. The kept token state of
// BenchmarkCheckpointEvery1 never changes, so every cut after the first
// is a reference record; BenchmarkCheckpointEvery1Changing changes it
// at every boundary, so every cut pays the reject path and a full
// record. The disabled configuration must stay at
// the batched engine's baseline (see TestExchangeAllocGate): with no
// capturer armed, Sync only adds a superstep-counter increment and one
// nil check.

import (
	"testing"

	"repro/internal/transport"
)

func benchCheckpoint(b *testing.B, ck *CheckpointConfig, changing bool) {
	b.ReportAllocs()
	cfg := Config{P: allocP, Transport: transport.ShmTransport{}, Checkpoint: ck}
	_, err := Run(cfg, func(c *Proc) {
		// A token kept state: apps keep real state, but the benchmark
		// isolates the machinery's own cost.
		tok := c.ID()
		c.Keep(&tok)
		var pkt Pkt
		pkt[0] = byte(c.ID())
		for n := 0; n < b.N; n++ {
			if changing {
				tok += c.P()
			}
			exchangeSuperstep(c, &pkt)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointEvery1 captures a durable global snapshot at every
// superstep boundary (allocs/op and ns/op are per whole-machine
// superstep, like BenchmarkExchangeAllocs).
func BenchmarkCheckpointEvery1(b *testing.B) {
	benchCheckpoint(b, &CheckpointConfig{Dir: b.TempDir(), Every: 1}, false)
}

// BenchmarkCheckpointEvery1Changing is BenchmarkCheckpointEvery1 with a
// token state that differs at every boundary: no cut is a reference.
func BenchmarkCheckpointEvery1Changing(b *testing.B) {
	benchCheckpoint(b, &CheckpointConfig{Dir: b.TempDir(), Every: 1}, true)
}

// BenchmarkCheckpointDisabled is the control: Run with no checkpoint
// directory, i.e. plain Run plus the disabled-capture nil check in
// Sync.
func BenchmarkCheckpointDisabled(b *testing.B) {
	benchCheckpoint(b, nil, false)
}
