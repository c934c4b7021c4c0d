package ocean

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// fieldsHash returns a SHA-256 over ψ's IEEE bits and the V-cycle count
// of each timestep.
func fieldsHash(f *Fields, cycles []int) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f.Psi {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range cycles {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFieldsGolden pins the bits of the computed stream function and
// the solver's V-cycle counts, Sequential and Parallel on sim, against
// testdata/fields_golden.txt. TestParallelBitIdenticalToSequential holds
// the two drivers to each other; this holds both to the bits they
// computed when the table was written, so a kernel rewrite that reorders
// one floating-point operation fails here even where it moves every
// driver alike. Regenerate with -update (or `make golden`) only for a
// deliberate change to the numerics.
func TestFieldsGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# ocean, 2 timesteps: SHA-256 over ψ's IEEE bits and the V-cycles of each step")
	fmt.Fprintln(&buf, "# size  run  hash")
	for _, size := range []int{18, 34, 66, 130} {
		cfg := Config{Size: size, Steps: 2}
		f, cycles, err := Sequential(cfg)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		fmt.Fprintf(&buf, "%6d  seq  %s\n", size, fieldsHash(f, cycles))
		for _, p := range []int{1, 4} {
			f, cycles, _, err := parallel(core.Config{P: p, Transport: transport.SimTransport{}}, cfg, tol)
			if err != nil {
				t.Fatalf("size %d p=%d: %v", size, p, err)
			}
			fmt.Fprintf(&buf, "%6d  p=%d  %s\n", size, p, fieldsHash(f, cycles))
		}
	}
	const path = "testdata/fields_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ocean's fields diverged from golden (run with -update after a deliberate change to the numerics)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
