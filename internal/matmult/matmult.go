// Package matmult implements the paper's dense matrix multiplication
// application (§3.6): Cannon's algorithm over the BSP library, with a
// blocked sequential kernel for the local multiplies.
//
// "The input matrices are assumed to be initially partitioned into
// blocks of size n/√p × n/√p, such that processor i holds the block with
// index (x, x+y mod √p) of A, and the block with index (x+y mod √p, y)
// of B, where x = ⌊i/√p⌋ and y = i mod √p. The algorithm then proceeds
// in √p iterations. In each iteration, each processor first multiplies
// its two local blocks using a sequential blocked matrix multiplication
// algorithm, and adds the result to the local part of the result matrix
// C. It then sends the A block to the next processor on its right, and
// the B block to the next processor below it (modulo √p)."
//
// Block elements travel as 16-byte records (row, col, value) — the
// paper's fixed packet size with labeling information — so the measured
// H matches the paper's packet accounting (e.g. H = 124416 for n = 576
// on 16 processors).
package matmult

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/wire"
)

// tile is the cache-blocking tile size of the sequential kernel.
const tile = 32

// Sequential multiplies two n×n row-major matrices with the blocked
// kernel used for the local multiplies.
func Sequential(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	MultiplyAdd(c, a, b, n)
	return c
}

// MultiplyAdd computes c += a·b for n×n row-major matrices using i-k-j
// loop order with square tiling.
func MultiplyAdd(c, a, b []float64, n int) {
	for ii := 0; ii < n; ii += tile {
		iMax := min(ii+tile, n)
		for kk := 0; kk < n; kk += tile {
			kMax := min(kk+tile, n)
			for jj := 0; jj < n; jj += tile {
				jMax := min(jj+tile, n)
				for i := ii; i < iMax; i++ {
					for k := kk; k < kMax; k++ {
						aik := a[i*n+k]
						if aik == 0 {
							continue
						}
						brow := b[k*n : k*n+n]
						crow := c[i*n : i*n+n]
						for j := jj; j < jMax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// RandomMatrix returns a deterministic pseudo-random n×n matrix.
func RandomMatrix(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64()*2 - 1
	}
	return m
}

// GridSide returns √p for a perfect-square p, or an error.
func GridSide(p int) (int, error) {
	sq := int(math.Round(math.Sqrt(float64(p))))
	if sq*sq != p {
		return 0, fmt.Errorf("matmult: p = %d is not a perfect square", p)
	}
	return sq, nil
}

// Distribute slices the global matrices into the paper's skewed block
// layout: element [i] of the returned slices is the (A, B) block pair
// held by processor i.
func Distribute(a, b []float64, n, p int) (aBlks, bBlks [][]float64, err error) {
	sq, err := GridSide(p)
	if err != nil {
		return nil, nil, err
	}
	if n%sq != 0 {
		return nil, nil, fmt.Errorf("matmult: n = %d not divisible by √p = %d", n, sq)
	}
	bn := n / sq
	aBlks = make([][]float64, p)
	bBlks = make([][]float64, p)
	for i := 0; i < p; i++ {
		x, y := i/sq, i%sq
		aBlks[i] = extractBlock(a, n, bn, x, (x+y)%sq)
		bBlks[i] = extractBlock(b, n, bn, (x+y)%sq, y)
	}
	return aBlks, bBlks, nil
}

// Assemble reconstructs the global n×n result from the per-processor C
// blocks (processor i holds C block (x, y)).
func Assemble(blocks [][]float64, n, p int) []float64 {
	sq, err := GridSide(p)
	if err != nil {
		panic(err)
	}
	bn := n / sq
	out := make([]float64, n*n)
	for i := 0; i < p; i++ {
		x, y := i/sq, i%sq
		placeBlock(out, blocks[i], n, bn, x, y)
	}
	return out
}

func extractBlock(m []float64, n, bn, bx, by int) []float64 {
	blk := make([]float64, bn*bn)
	for r := 0; r < bn; r++ {
		copy(blk[r*bn:(r+1)*bn], m[(bx*bn+r)*n+by*bn:(bx*bn+r)*n+by*bn+bn])
	}
	return blk
}

func placeBlock(m, blk []float64, n, bn, bx, by int) {
	for r := 0; r < bn; r++ {
		copy(m[(bx*bn+r)*n+by*bn:(bx*bn+r)*n+by*bn+bn], blk[r*bn:(r+1)*bn])
	}
}

// packBlock serializes a bn×bn block as 16-byte (row, col, value)
// records — one Green BSP packet per element.
func packBlock(blk []float64, bn int) []byte {
	w := wire.NewWriter(16 * bn * bn)
	for r := 0; r < bn; r++ {
		for c := 0; c < bn; c++ {
			w.Uint32(uint32(r))
			w.Uint32(uint32(c))
			w.Float64(blk[r*bn+c])
		}
	}
	return w.Bytes()
}

// unpackBlock rebuilds a block from (row, col, value) records; records
// may arrive in any order.
func unpackBlock(msg []byte, bn int) []float64 {
	blk := make([]float64, bn*bn)
	r := wire.NewReader(msg)
	for r.Remaining() >= 16 {
		row := int(r.Uint32())
		col := int(r.Uint32())
		blk[row*bn+col] = r.Float64()
	}
	return blk
}

// recvOne returns the single message expected this superstep.
func recvOne(c *core.Proc) []byte {
	msg, ok := c.Recv()
	if !ok {
		panic("matmult: expected a shifted block, received nothing")
	}
	if _, extra := c.Recv(); extra {
		panic("matmult: received more than one block")
	}
	return msg
}

// Run executes Cannon's algorithm inside a BSP process: aBlk and bBlk
// are this processor's blocks in the skewed layout; the returned slice
// is this processor's block of C. Each of the √p−1 shift rounds uses two
// supersteps (A then B), and a final superstep closes the computation,
// giving S = 2(√p−1)+1 — matching the paper's Table C.3 (S = 3, 5, 7
// for p = 4, 9, 16).
func Run(c *core.Proc, n int, aBlk, bBlk []float64) []float64 {
	p := c.P()
	sq, err := GridSide(p)
	if err != nil {
		panic(err)
	}
	if n%sq != 0 {
		panic(fmt.Sprintf("matmult: n = %d not divisible by √p = %d", n, sq))
	}
	bn := n / sq
	x, y := c.ID()/sq, c.ID()%sq
	a := append([]float64(nil), aBlk...)
	b := append([]float64(nil), bBlk...)
	out := make([]float64, bn*bn)
	for t := 0; t < sq; t++ {
		MultiplyAdd(out, a, b, bn)
		c.AddWork(bn * bn * bn) // one unit per fused multiply-add
		if t == sq-1 {
			break
		}
		// Shift A along the processor row and B along the processor
		// column (the paper's right/below; the direction must simply be
		// the inverse of the initial skew so that after the shift
		// processor (x,y) holds A(x, x+y+t+1) and B(x+y+t+1, y)).
		left := x*sq + (y+sq-1)%sq
		c.Send(left, packBlock(a, bn))
		c.Sync()
		a = unpackBlock(recvOne(c), bn)
		up := ((x+sq-1)%sq)*sq + y
		c.Send(up, packBlock(b, bn))
		c.Sync()
		b = unpackBlock(recvOne(c), bn)
	}
	c.Sync()
	return out
}

// Parallel is the full driver: distribute, run on the configured BSP
// machine, assemble. It returns the product, the run statistics and any
// run error.
func Parallel(cfg core.Config, a, b []float64, n int) ([]float64, *core.Stats, error) {
	aBlks, bBlks, err := Distribute(a, b, n, cfg.P)
	if err != nil {
		return nil, nil, err
	}
	cBlks := make([][]float64, cfg.P)
	st, err := core.Run(cfg, func(c *core.Proc) {
		cBlks[c.ID()] = Run(c, n, aBlks[c.ID()], bBlks[c.ID()])
	})
	if err != nil {
		return nil, nil, err
	}
	return Assemble(cBlks, n, cfg.P), st, nil
}
