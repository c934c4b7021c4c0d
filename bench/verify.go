package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/ocean"
)

// Every run of both passes is verified; a run that fails verification
// counts as failed and contributes no sample.

// counts are the exact program parameters of Eq. 1. They must repeat on
// every run of a workload, and for ocean across tcp, shm and cluster.
type counts struct {
	S         int   // supersteps
	H         int   // Σ over supersteps of the h-relation size, packets
	Pkts      int   // packets sent by all ranks
	Cuts      int   // complete checkpoint cuts committed
	CkptBytes int64 // snapshot bytes written
}

func countsOf(st *core.Stats) counts {
	return counts{S: st.S(), H: st.H(), Pkts: st.TotalPkts()}
}

func verifyCounts(got, want counts) error {
	if got != want {
		return fmt.Errorf("counts changed: got %+v, want %+v", got, want)
	}
	return nil
}

// keyChecksum is an order-independent 64-bit checksum of a key multiset:
// the sum of a bijective mix of each key's bits, so swapping keys keeps
// it and changing any single key changes it.
func keyChecksum(keys []float64) uint64 {
	var sum uint64
	for _, k := range keys {
		x := math.Float64bits(k)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		sum += x
	}
	return sum
}

// verifySorted checks that out is sorted and a permutation of the input
// whose length and checksum were taken in set-up.
func verifySorted(out []float64, n int, sum uint64) error {
	if len(out) != n {
		return fmt.Errorf("sorted output has %d keys, want %d", len(out), n)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			return fmt.Errorf("output not sorted at %d: %v > %v", i, out[i-1], out[i])
		}
	}
	if got := keyChecksum(out); got != sum {
		return fmt.Errorf("output is not a permutation of the input: checksum %#x, want %#x", got, sum)
	}
	return nil
}

// verifyFields checks that got is bit-identical to the reference.
func verifyFields(got, want *ocean.Fields) error {
	if got.M != want.M || len(got.Psi) != len(want.Psi) {
		return fmt.Errorf("ocean fields have m=%d len=%d, want m=%d len=%d", got.M, len(got.Psi), want.M, len(want.Psi))
	}
	for i, v := range got.Psi {
		if math.Float64bits(v) != math.Float64bits(want.Psi[i]) {
			return fmt.Errorf("ocean psi[%d] = %v, reference %v", i, v, want.Psi[i])
		}
	}
	return nil
}

// putHrelHeader writes the 8 bytes that open every h-relation message:
// the sender's rank, the superstep it was sent in and its index k among
// the sender's messages to this destination.
func putHrelHeader(b []byte, src, step, k int) {
	binary.LittleEndian.PutUint16(b[0:], uint16(src))
	binary.LittleEndian.PutUint32(b[2:], uint32(step))
	binary.LittleEndian.PutUint16(b[6:], uint16(k))
}

// hrelCheck verifies one rank's deliveries: each superstep it must
// receive every (src, k) for src ≠ rank exactly once, stamped with the
// superstep just ended, at full length.
type hrelCheck struct {
	rank, p, msgs, size int
	seen                []int // per (src, k): 1 + the last superstep it arrived in
	bad                 int   // messages or supersteps that broke the contract
}

func newHrelCheck(rank, p, msgs, size int) *hrelCheck {
	return &hrelCheck{rank: rank, p: p, msgs: msgs, size: size, seen: make([]int, p*msgs)}
}

func (h *hrelCheck) message(step int, m []byte) {
	if len(m) != h.size {
		h.bad++
		return
	}
	src := int(binary.LittleEndian.Uint16(m[0:]))
	st := int(binary.LittleEndian.Uint32(m[2:]))
	k := int(binary.LittleEndian.Uint16(m[6:]))
	if src >= h.p || src == h.rank || k >= h.msgs || st != step || h.seen[src*h.msgs+k] == step+1 {
		h.bad++
		return
	}
	h.seen[src*h.msgs+k] = step + 1
}

// endStep closes superstep step after got messages were drained.
func (h *hrelCheck) endStep(got int) {
	if got != (h.p-1)*h.msgs {
		h.bad++
	}
}

// verifyCheckpoint checks that dir holds a complete, crc-valid snapshot
// of all p ranks at superstep step — the run's durable output.
func verifyCheckpoint(dir string, p, step int) error {
	st := ckpt.Store{Dir: dir}
	got, snaps, ok := st.LoadComplete(p)
	if !ok || got != step || len(snaps) != p {
		return fmt.Errorf("checkpoint in %s: complete=%v step=%d ranks=%d, want step %d on %d ranks", dir, ok, got, len(snaps), step, p)
	}
	return nil
}

// verifyCluster checks the parsed bsprun output against the in-process
// reference: every rank ran the reference's S supersteps, the ranks
// together sent its packet count, and the launcher's own sim
// measurement reports its H.
func verifyCluster(out clusterOutput, p int, want counts) error {
	if len(out.ranks) != p {
		return fmt.Errorf("cluster: %d rank lines, want %d", len(out.ranks), p)
	}
	pkts := 0
	for _, r := range out.ranks {
		if r.s != want.S {
			return fmt.Errorf("cluster: rank %d ran S=%d, want %d", r.rank, r.s, want.S)
		}
		pkts += r.pkts
	}
	return verifyCounts(counts{S: want.S, H: out.simH, Pkts: pkts}, want)
}
