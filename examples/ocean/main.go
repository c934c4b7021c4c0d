// Ocean example: the multigrid ocean eddy simulation (paper §3.1) on the
// BSP library. Prints an ASCII rendering of the stream function — the
// wind-driven gyre — and demonstrates the bit-identical parallel result.
//
// Run with: go run ./examples/ocean [-size 66] [-p 4] [-steps 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/ocean"
	"repro/internal/transport"
)

func main() {
	size := flag.Int("size", 66, "grid size (2^k+2: 18, 34, 66, 130, ...)")
	p := flag.Int("p", 4, "BSP processes")
	steps := flag.Int("steps", 3, "timesteps")
	flag.Parse()

	cfg := ocean.Config{Size: *size, Steps: *steps}
	seq, cycles, err := ocean.Sequential(cfg)
	if err != nil {
		log.Fatal(err)
	}
	par, st, err := ocean.Parallel(core.Config{P: *p, Transport: transport.ShmTransport{}}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for i := range seq.Psi {
		if seq.Psi[i] != par.Psi[i] {
			log.Fatalf("parallel (p=%d) psi[%d] = %v, sequential %v: not bit-identical", *p, i, par.Psi[i], seq.Psi[i])
		}
	}
	fmt.Printf("ocean %dx%d, %d timesteps, multigrid V-cycles per step: %v\n",
		*size, *size, *steps, cycles)
	fmt.Printf("parallel (p=%d) result bit-identical to sequential: true\n", *p)
	fmt.Printf("BSP cost: S=%d supersteps, H=%d packets, W=%v\n\n", st.S(), st.H(), st.W())

	// Render the gyre: sample the stream function on a coarse raster.
	const shades = " .:-=+*#%@"
	m := par.M
	var maxAbs float64
	for _, v := range par.Psi {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	const rows, cols = 16, 32
	for r := 0; r < rows; r++ {
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			v := par.At(1+r*m/rows, 1+c*m/cols)
			idx := int(math.Abs(v) / (maxAbs + 1e-300) * float64(len(shades)-1))
			line[c] = shades[idx]
		}
		fmt.Println(string(line))
	}
	fmt.Printf("\n|ψ|max = %.3e (wind-driven gyre, fixed boundary)\n", maxAbs)
}
