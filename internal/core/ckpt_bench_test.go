package core

// Checkpoint overhead accounting: the same 8-process all-to-all
// superstep as BenchmarkExchangeAllocs, run through RunRecoverable with
// capture at every boundary versus capture disabled. The delta is the
// full cost of a durable global snapshot per superstep — Save hook,
// streaming the inbox's batches and crc into the file, atomic file
// write, manifest commit — and is recorded in BENCH_ckpt.json. The
// disabled configuration must stay at
// the batched engine's baseline (see TestExchangeAllocGate): with no
// capturer armed, Sync only adds a superstep-counter increment and one
// nil check.

import (
	"testing"

	"repro/internal/transport"
)

func benchCheckpoint(b *testing.B, ck *CheckpointConfig) {
	b.ReportAllocs()
	cfg := Config{P: allocP, Transport: transport.ShmTransport{}, Checkpoint: ck}
	hooks := Hooks{
		Save: func(c *Proc, buf []byte) ([]byte, bool) {
			// A token user state: apps serialize real state, but the
			// benchmark isolates the machinery's own cost.
			return append(buf, byte(c.ID())), true
		},
	}
	_, err := RunRecoverable(cfg, func(c *Proc) {
		var pkt Pkt
		pkt[0] = byte(c.ID())
		for n := 0; n < b.N; n++ {
			exchangeSuperstep(c, &pkt)
		}
	}, hooks)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointEvery1 captures a durable global snapshot at every
// superstep boundary (allocs/op and ns/op are per whole-machine
// superstep, like BenchmarkExchangeAllocs).
func BenchmarkCheckpointEvery1(b *testing.B) {
	benchCheckpoint(b, &CheckpointConfig{Dir: b.TempDir(), Every: 1})
}

// BenchmarkCheckpointDisabled is the control: RunRecoverable with no
// checkpoint directory, i.e. plain Run plus the disabled-capture nil
// check in Sync.
func BenchmarkCheckpointDisabled(b *testing.B) {
	benchCheckpoint(b, nil)
}
