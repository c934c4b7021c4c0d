package psort

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
)

// maxRatio caps the oversampling ratio: beyond this the splitter
// machinery stops being the cheap term of the cost shape.
const maxRatio = 128

// DefaultRatio chooses the oversampling ratio ℓ from the machine
// profile (g, L), following the tuning methodology of Gerbessiotis &
// Siniolakis: the two ℓ-dependent terms of the sort's cost are the
// sample traffic, which grows as g·2ℓp·pkt(elem), and the imbalance
// overhead of the data exchange, which shrinks as g·(n/ℓp)·pkt(elem);
// their crossing is ℓ* = √(n·elemBytes/16)/p. A high-latency machine
// affords denser sampling for free — the sample superstep already
// costs L, so ℓ is raised until its g·h term emerges from under the
// latency floor (L/g packets, spread over the ⌈√p⌉ runs a leader
// absorbs). The result is clamped so m = 2ℓp never exceeds the local
// share and the splitter machinery stays the small term.
func DefaultRatio(pm cost.Params, n, p, elemBytes int) int {
	if p <= 1 || n <= 0 {
		return 1
	}
	l := int(math.Round(math.Sqrt(float64(n*elemBytes)/16.0) / float64(p)))
	if pm.G > 0 {
		l = max(l, int(pm.L/(pm.G*float64(2*p))))
	}
	return max(1, min(l, n/(2*p*p), maxRatio))
}

// ImbalanceBound is the deterministic per-rank output bound of the
// oversampling sort: no rank's final share exceeds
//
//	(1 + 1/ℓ)·n/p  +  2ℓp + 2p
//
// elements. The leading term is the classical regular-sampling bound:
// splitters sit at regular positions of the full p·m-sample multiset,
// so at most m samples fall strictly inside any bucket, and each
// sample stands for at most ⌈n/(p·m)⌉ elements of its origin rank —
// m·n/(p·m) = n/p interior elements. The p sample gaps straddling the
// bucket's two edges (one per rank) add up to p·n/(p·m) = n/(2ℓp) ≤
// (1/ℓ)·n/p more, which is what the factor 2 in m = 2ℓp pays for; the
// additive term is the per-gap discretization slack (one element per
// gap, at most 2ℓp + 2p gaps touch a bucket). Origin tags make every
// key distinct in the tagged order, so the bound also holds for
// all-equal and adversarially duplicated inputs.
func ImbalanceBound(n, p, l int) int {
	if p <= 1 {
		return n
	}
	lead := float64(n) / float64(p) * (1 + 1/float64(l))
	return int(math.Ceil(lead)) + 2*l*p + 2*p
}

// Shape is the predicted cost shape of one sort run: the S, W and
// per-superstep H terms of Equation 1, in the units Stats report
// (work units, 16-byte packet units).
type Shape struct {
	// S is the superstep count (always 4 for p > 1).
	S int
	// W is the predicted work depth in comparison units: local sort,
	// leader merge, root merge, routing walk, final k-way merge.
	W int
	// SampleH, ForwardH, SplitterH, RouteH are the per-superstep
	// h-relations in packet units.
	SampleH, ForwardH, SplitterH, RouteH int
	// Bound is ImbalanceBound(n, p, ℓ) in elements.
	Bound int
	// HLower is the Bilardi et al. communication lower bound in packet
	// units (cost.SortHLowerBound).
	HLower int
}

// H is the predicted total h-relation in packet units.
func (s Shape) H() int { return s.SampleH + s.ForwardH + s.SplitterH + s.RouteH }

// pkts converts bytes to 16-byte packet units, rounding up.
func pkts(bytes int) int { return (bytes + 15) / 16 }

// PredictShape evaluates the sort's cost shape for n elements over p
// ranks at oversampling ratio l.
func PredictShape(n, p, l int) Shape {
	if p <= 1 {
		return Shape{S: 4, W: nLogN(n), Bound: n}
	}
	m := sampleCount(l, p)
	fanout := int(math.Ceil(math.Sqrt(float64(p))))
	groups := (p + fanout - 1) / fanout
	sampleTuple := elemBytes + 4
	splTuple := elemBytes + tagLen
	bound := ImbalanceBound(n, p, l)
	sh := Shape{
		S: 4,
		// Leaders absorb ≤ fanout sample runs of m tuples each; packet
		// units round up per message, not over the concatenation.
		SampleH: fanout * pkts(sampleHdrLen+m*sampleTuple),
		// Rank 0 absorbs ≤ groups merged runs of ≤ fanout·m full tags
		// each — the sample volume is conserved (that resolution is what
		// the imbalance bound is made of) but arrives in ⌈√p⌉-bounded
		// messages.
		ForwardH: groups * pkts(fanout*m*splTuple),
		// The broadcast leaves rank 0 as p copies of p−1 tuples.
		SplitterH: p * pkts(4+(p-1)*splTuple),
		// The exchange is bounded per rank by the imbalance bound,
		// arriving as ≤ p runs with one header and one padding packet
		// each.
		RouteH: pkts(bound*elemBytes) + 2*p,
		Bound:  bound,
		HLower: cost.SortHLowerBound(n, p, elemBytes),
	}
	np := n / p
	sh.W = nLogN(np) + nLogN(fanout*m) + nLogN(p*m) + np + nLogN(bound)
	return sh
}

// WriteCostReport prints the sort's predicted cost shape next to a
// run's measured Stats: predicted W/H/S, the per-rank imbalance bound
// (1+1/ℓ)·n/p, and the Bilardi et al. H lower bound with the measured
// H's distance from it, at the ratio ℓ Parallel sorts n elements over
// p ranks with. st may be nil (prediction only).
func WriteCostReport(w io.Writer, name string, pm cost.Params, n, p int, st *core.Stats) {
	l := oversample(n, p)
	sh := PredictShape(n, p, l)
	fmt.Fprintf(w, "sample sort cost shape (n=%d p=%d elem=%dB, regular sampling, l=%d, m=2lp=%d samples/rank):\n",
		n, p, elemBytes, l, sampleCount(l, p))
	fmt.Fprintf(w, "  predicted S=%d  W=%d units  H=%d pkts (samples %d + forward %d + splitters %d + route %d)\n",
		sh.S, sh.W, sh.H(), sh.SampleH, sh.ForwardH, sh.SplitterH, sh.RouteH)
	fmt.Fprintf(w, "  per-rank imbalance bound (1+1/l)*n/p = %d elements (n/p = %d, +%d discretization)\n",
		sh.Bound, n/max(p, 1), sh.Bound-int(math.Ceil(float64(n)/float64(max(p, 1))*(1+1/float64(l)))))
	fmt.Fprintf(w, "  predicted T on %s: %v (Equation 1 with W as comparison units)\n",
		name, pm.CommTime(sh.H(), sh.S))
	if sh.HLower > 0 {
		fmt.Fprintf(w, "  Bilardi H lower bound: %d pkts", sh.HLower)
		if st != nil {
			fmt.Fprintf(w, "; measured H=%d pkts (%.2fx of bound)", st.H(), float64(st.H())/float64(sh.HLower))
		}
		fmt.Fprintln(w)
	}
	if st != nil {
		fmt.Fprintf(w, "  measured: S=%d W=%d units H=%d pkts\n", st.S(), st.WUnits(), st.H())
	}
}
