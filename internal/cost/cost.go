// Package cost implements the BSP cost model of Valiant as used in the
// paper (Equation 1): the execution time of a program with work depth W,
// communication volume H and S supersteps on a machine with gap g and
// latency L is
//
//	T = W + g·H + L·S
//
// The two machine parameters follow the paper's definitions: "the gap g,
// which reflects network bandwidth on a per-processor basis, and the
// latency L, which is the minimum duration of a superstep". Figure 2.1's
// measured (g, L) values for the three evaluation platforms are embedded
// as machine profiles so that predicted times, speed-ups and performance
// breakpoints can be regenerated (DESIGN.md §2, substitution table).
package cost

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Params are the BSP machine parameters for one processor count.
type Params struct {
	// G is the time per 16-byte packet, in microseconds, "for a
	// sufficiently large superstep with a total-exchange communication
	// pattern".
	G float64
	// L is the minimum superstep duration in microseconds: "the time
	// for a superstep in which each processor sends a single packet".
	L float64
}

// Predict evaluates Equation 1 for a program with the given measured
// work depth, packet volume and superstep count.
func (p Params) Predict(w time.Duration, h, s int) time.Duration {
	us := float64(w)/1e3 + p.G*float64(h) + p.L*float64(s)
	return time.Duration(us * 1e3)
}

// CommTime returns the predicted communication-plus-synchronization time
// g·H + L·S (the "predicted communication times (including
// synchronization)" series of Figure 1.1).
func (p Params) CommTime(h, s int) time.Duration {
	return time.Duration((p.G*float64(h) + p.L*float64(s)) * 1e3)
}

// Machine is a named BSP platform: (g, L) per processor count, plus a
// relative local-computation speed used when transferring work
// measurements across platforms.
type Machine struct {
	// Name identifies the platform ("SGI", "Cenju", "PC").
	Name string
	// ByProcs maps a processor count to measured parameters.
	ByProcs map[int]Params
	// WorkScale multiplies work depths measured on the reference
	// platform. Speed-ups are ratios of predicted times on the same
	// machine, so WorkScale cancels there; it only shifts absolute
	// predictions. 0 means 1.
	WorkScale float64
	// MaxProcs is the largest configuration the platform supports
	// (16 for SGI/Cenju, 8 for the PC LAN).
	MaxProcs int
}

// Params returns the machine parameters for p processors. Exact table
// entries are returned as-is; other processor counts interpolate g and L
// linearly in log2(p) between the bracketing entries, and clamp beyond
// the table (the paper only tabulates powers of two plus 9).
func (m Machine) Params(p int) Params {
	if v, ok := m.ByProcs[p]; ok {
		return v
	}
	keys := make([]int, 0, len(m.ByProcs))
	for k := range m.ByProcs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if p <= keys[0] {
		return m.ByProcs[keys[0]]
	}
	last := keys[len(keys)-1]
	if p >= last {
		return m.ByProcs[last]
	}
	lo := keys[0]
	for _, k := range keys {
		if k > p {
			hi := k
			a, b := m.ByProcs[lo], m.ByProcs[hi]
			t := (math.Log2(float64(p)) - math.Log2(float64(lo))) /
				(math.Log2(float64(hi)) - math.Log2(float64(lo)))
			return Params{G: a.G + t*(b.G-a.G), L: a.L + t*(b.L-a.L)}
		}
		lo = k
	}
	return m.ByProcs[last]
}

// ParamsExtrapolated returns machine parameters for processor counts
// beyond the measured table by continuing the log2(p)-linear trend of
// the two largest measured entries. The paper leaves large machines as
// future work (§5: "we plan to extend our study to several larger
// machines"); this extrapolation powers the scalability study
// (BenchmarkScalability) with clearly-labeled projected parameters.
func (m Machine) ParamsExtrapolated(p int) Params {
	keys := make([]int, 0, len(m.ByProcs))
	for k := range m.ByProcs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	last := keys[len(keys)-1]
	if p <= last {
		return m.Params(p)
	}
	if len(keys) < 2 {
		return m.ByProcs[last]
	}
	prev := keys[len(keys)-2]
	a, b := m.ByProcs[prev], m.ByProcs[last]
	t := (math.Log2(float64(p)) - math.Log2(float64(last))) /
		(math.Log2(float64(last)) - math.Log2(float64(prev)))
	g := b.G + t*(b.G-a.G)
	l := b.L + t*(b.L-a.L)
	return Params{G: math.Max(g, 0), L: math.Max(l, 0)}
}

// Scale returns the machine's work scale factor (default 1).
func (m Machine) Scale() float64 {
	if m.WorkScale == 0 {
		return 1
	}
	return m.WorkScale
}

// Predict evaluates Equation 1 on this machine for p processors, scaling
// the measured work depth by the machine's relative computation speed.
func (m Machine) Predict(p int, w time.Duration, h, s int) time.Duration {
	return m.Params(p).Predict(time.Duration(float64(w)*m.Scale()), h, s)
}

// Supports reports whether the machine has at least p processors.
func (m Machine) Supports(p int) bool {
	return m.MaxProcs == 0 || p <= m.MaxProcs
}

// String implements fmt.Stringer.
func (m Machine) String() string { return m.Name }

// Figure 2.1 of the paper: measured bandwidth cost g (microseconds per
// 16-byte packet) and latency cost L (microseconds per superstep).
var (
	// SGI is the shared-memory SGI Challenge (16× MIPS R4400).
	SGI = Machine{
		Name: "SGI",
		ByProcs: map[int]Params{
			1: {G: 0.77, L: 3}, 2: {G: 0.82, L: 16}, 4: {G: 0.88, L: 29},
			8: {G: 0.97, L: 52}, 9: {G: 1.0, L: 57}, 16: {G: 0.95, L: 105},
		},
		MaxProcs: 16,
	}
	// Cenju is the NEC Cenju (16× MIPS R4400, multistage network, MPI).
	Cenju = Machine{
		Name: "Cenju",
		ByProcs: map[int]Params{
			1: {G: 2.2, L: 130}, 2: {G: 2.2, L: 260}, 4: {G: 2.2, L: 470},
			8: {G: 2.5, L: 1470}, 9: {G: 2.7, L: 1680}, 16: {G: 3.6, L: 2880},
		},
		MaxProcs: 16,
	}
	// PC is the LAN of eight 166-MHz Pentium PCs on switched Ethernet.
	PC = Machine{
		Name: "PC",
		ByProcs: map[int]Params{
			1: {G: 0.92, L: 2}, 2: {G: 3.3, L: 540}, 4: {G: 4.8, L: 1556},
			8: {G: 8.6, L: 3715},
		},
		MaxProcs: 8,
	}
)

// PaperMachines lists the three evaluation platforms in paper order.
func PaperMachines() []Machine { return []Machine{SGI, Cenju, PC} }

// MachineByName returns one of the embedded machine profiles.
func MachineByName(name string) (Machine, error) {
	for _, m := range PaperMachines() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("cost: unknown machine %q (want SGI, Cenju or PC)", name)
}

// SortHLowerBound returns a lower bound, in 16-byte packet units, on
// the h-relation volume H that any BSP sort of n elements of elemBytes
// each must pay on p processors with balanced input and output — the
// bandwidth specialization of the Bilardi–Scquizzato–Silvestri BSP
// communication lower bounds (PAPERS.md): each processor holds n/p
// elements, of which a (p−1)/p fraction belong on another rank for a
// worst-case (indeed, for a random) input permutation, so some
// superstep sequence must move at least (1−1/p)·n/p elements through
// every rank's ports. Measured H at or near this bound certifies that
// the redistribution superstep, not the sample machinery, dominates
// communication.
func SortHLowerBound(n, p, elemBytes int) int {
	if p <= 1 || n <= 0 {
		return 0
	}
	elems := n / p * (p - 1) / p
	return (elems*elemBytes + 15) / 16
}

// Speedup returns t1/tp, the paper's speed-up definition ("the ratio of
// the parallel runtime and the runtime of the same program on a single
// processor"). It returns 0 when tp is 0.
func Speedup(t1, tp time.Duration) float64 {
	if tp == 0 {
		return 0
	}
	return float64(t1) / float64(tp)
}
