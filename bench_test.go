// Benchmarks regenerating the paper's evaluation (one per table and
// figure; DESIGN.md §4) plus the ablation and extension experiments
// (DESIGN.md §5, A1–A4, E1–E2).
//
// Default sizes are scaled down so `go test -bench . -benchmem` finishes
// in minutes on a laptop; `go test -bench . -timeout 0 -args -full` runs
// the paper's sizes. Reported metrics: S (supersteps), Hpkts (summed
// h-relations), and model speed-ups on the paper machine profiles.
package repro

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matmult"
	"repro/internal/nbody"
	"repro/internal/sp"
	"repro/internal/transport"
)

var fullFlag = flag.Bool("full", false, "benchmark the paper's input sizes (slow)")

// collectOnce caches harness measurements across benchmark iterations so
// b.N > 1 does not redo identical deterministic sim runs.
var (
	collectMu    sync.Mutex
	collectCache = map[string][]harness.Row{}
)

func collectApp(b *testing.B, app string) []harness.Row {
	b.Helper()
	key := fmt.Sprintf("%s-full=%v", app, *fullFlag)
	collectMu.Lock()
	defer collectMu.Unlock()
	if rows, ok := collectCache[key]; ok {
		return rows
	}
	rows, err := harness.Collect(app, harness.Sizes(app, *fullFlag), harness.Procs(app))
	if err != nil {
		b.Fatal(err)
	}
	collectCache[key] = rows
	return rows
}

// reportShape attaches the headline shape metrics of an app's largest
// configuration to the benchmark output.
func reportShape(b *testing.B, rows []harness.Row) {
	b.Helper()
	factor := harness.CalibrationFactor(rows)
	last := rows[len(rows)-1]
	var base harness.Row
	for _, r := range rows {
		if r.Size == last.Size && r.NP == 1 {
			base = r
		}
	}
	b.ReportMetric(float64(last.S), "S")
	b.ReportMetric(float64(last.H), "Hpkts")
	b.ReportMetric(last.SpeedupCal(cost.SGI, base, factor), "spdpSGI")
	b.ReportMetric(last.SpeedupCal(cost.Cenju, base, factor), "spdpCenju")
	if cost.PC.Supports(last.NP) {
		b.ReportMetric(last.SpeedupCal(cost.PC, base, factor), "spdpPC")
	}
}

func benchTable(b *testing.B, app string) {
	var rows []harness.Row
	for i := 0; i < b.N; i++ {
		collectMu.Lock()
		delete(collectCache, fmt.Sprintf("%s-full=%v", app, *fullFlag))
		collectMu.Unlock()
		rows = collectApp(b, app)
	}
	reportShape(b, rows)
}

// BenchmarkTableC1_Ocean regenerates Table C.1 (ocean, all sizes × NP).
func BenchmarkTableC1_Ocean(b *testing.B) { benchTable(b, "ocean") }

// BenchmarkTableC2_MST regenerates Table C.2 (minimum spanning tree).
func BenchmarkTableC2_MST(b *testing.B) { benchTable(b, "mst") }

// BenchmarkTableC3_MatMult regenerates Table C.3 (Cannon's algorithm).
func BenchmarkTableC3_MatMult(b *testing.B) { benchTable(b, "mm") }

// BenchmarkTableC4_NBody regenerates Table C.4 (Barnes-Hut).
func BenchmarkTableC4_NBody(b *testing.B) { benchTable(b, "nbody") }

// BenchmarkTableC5_SP regenerates Table C.5 (shortest paths).
func BenchmarkTableC5_SP(b *testing.B) { benchTable(b, "sp") }

// BenchmarkTableC6_MSP regenerates Table C.6 (multiple shortest paths).
func BenchmarkTableC6_MSP(b *testing.B) { benchTable(b, "msp") }

// BenchmarkFig1_1_OceanBreakpoints regenerates the Figure 1.1 series and
// reports the breakpoint the paper highlights: on the PC profile, 4
// processors gain little over 2 and 8 degrade sharply.
func BenchmarkFig1_1_OceanBreakpoints(b *testing.B) {
	var rows []harness.Row
	for i := 0; i < b.N; i++ {
		rows = collectApp(b, "ocean")
	}
	factor := harness.CalibrationFactor(rows)
	sizes := harness.Sizes("ocean", *fullFlag)
	size := sizes[len(sizes)/2]
	pred := map[int]float64{}
	for _, r := range rows {
		if r.Size == size && cost.PC.Supports(r.NP) {
			pred[r.NP] = r.PredictCal(cost.PC, factor).Seconds()
		}
	}
	if pred[2] > 0 {
		b.ReportMetric(pred[2]/pred[4], "PCgain2to4")
		b.ReportMetric(pred[8]/pred[4], "PCdegrade8")
	}
}

// BenchmarkFig2_1_MachineParams measures this host's (g, L) per
// transport — the Figure 2.1 analogue.
func BenchmarkFig2_1_MachineParams(b *testing.B) {
	for _, tr := range []transport.Transport{
		transport.ShmTransport{}, transport.XchgTransport{}, transport.TCPTransport{},
	} {
		b.Run(tr.Name(), func(b *testing.B) {
			var pr cost.Params
			for i := 0; i < b.N; i++ {
				var err error
				pr, err = harness.MeasureParams(tr, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pr.G, "g_us")
			b.ReportMetric(pr.L, "L_us")
		})
	}
}

// BenchmarkFig3_1_SpeedupSummary regenerates the Figure 3.1 summary
// across all six applications.
func BenchmarkFig3_1_SpeedupSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range harness.Apps() {
			collectApp(b, app)
		}
	}
	rows := collectApp(b, "nbody")
	reportShape(b, rows)
}

// BenchmarkFig3_2_ModelSummary regenerates the Figure 3.2 model summary
// and reports the 16-processor SGI prediction accuracy proxy: the ratio
// of communication to total predicted time for the N-body application
// (small in the paper; the model is compute-dominated there).
func BenchmarkFig3_2_ModelSummary(b *testing.B) {
	var rows []harness.Row
	for i := 0; i < b.N; i++ {
		rows = collectApp(b, "nbody")
	}
	factor := harness.CalibrationFactor(rows)
	last := rows[len(rows)-1]
	pred := last.PredictCal(cost.SGI, factor)
	comm := last.PredictComm(cost.SGI)
	b.ReportMetric(float64(comm)/float64(pred), "commFrac")
}

// BenchmarkAblationWorkFactor sweeps the shortest-paths work factor
// (DESIGN.md A1 / paper §3.4: "the work factor should grow with L").
func BenchmarkAblationWorkFactor(b *testing.B) {
	g := graph.Geometric(2500, 1996)
	for _, wf := range []int{20, 200, 2000, 20000} {
		b.Run(fmt.Sprintf("wf=%d", wf), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = sp.ParallelSingle(core.Config{P: 4, Transport: transport.ShmTransport{}}, g, 0, wf)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.S()), "S")
			b.ReportMetric(float64(st.H()), "Hpkts")
			// On a high-latency machine the small work factor loses:
			// predicted Cenju time per work factor.
			b.ReportMetric(cost.Cenju.Predict(4, st.W(), st.H(), st.S()).Seconds()*1e3, "CenjuPred_ms")
		})
	}
}

// BenchmarkAblationPacketSize compares fixed 16-byte packets against the
// variable-length message extension for the same payload (DESIGN.md A3 /
// paper footnote 2).
func BenchmarkAblationPacketSize(b *testing.B) {
	const p, elems = 4, 512
	run := func(b *testing.B, fn func(c *core.Proc)) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, fn); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pkt16", func(b *testing.B) {
		run(b, func(c *core.Proc) {
			var pkt core.Pkt
			for dst := 0; dst < p; dst++ {
				for k := 0; k < elems; k++ {
					c.SendPkt(dst, &pkt)
				}
			}
			c.Sync()
			for {
				if _, ok := c.GetPkt(); !ok {
					break
				}
			}
		})
	})
	b.Run("batched", func(b *testing.B) {
		payload := make([]byte, 16*elems)
		run(b, func(c *core.Proc) {
			for dst := 0; dst < p; dst++ {
				c.Send(dst, payload)
			}
			c.Sync()
			for {
				if _, ok := c.Recv(); !ok {
					break
				}
			}
		})
	})
}

// BenchmarkAblationRepartition compares N-body ORB repartitioning
// thresholds (DESIGN.md A4 / §3.2: repartition only past a threshold).
// The run starts from a deliberately skewed assignment (every body on
// rank 0), so a tight threshold repartitions immediately while an
// infinite one never recovers; the work-depth metric exposes the load
// imbalance the threshold is meant to bound.
func BenchmarkAblationRepartition(b *testing.B) {
	const p, steps = 4, 3
	bodies := nbody.Plummer(1000, 1996)
	lo, hi := nbody.Bounds(bodies)
	for k := 0; k < 3; k++ {
		hi[k] += 1e-9
	}
	// A degenerate initial ORB (built from samples piled in one corner)
	// funnels almost every body onto one rank; only the threshold-driven
	// rebalancing can repair it.
	corner := make([]nbody.Vec3, 64)
	for i := range corner {
		corner[i] = lo
	}
	orb, err := nbody.BuildORB(corner, p, nbody.Box{Lo: lo, Hi: hi})
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []float64{1.1, 1e9} {
		b.Run(fmt.Sprintf("thr=%g", thr), func(b *testing.B) {
			var st *core.Stats
			rebalances := 0
			for i := 0; i < b.N; i++ {
				var err error
				st, err = core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, func(c *core.Proc) {
					var mine []nbody.Body
					if c.ID() == 0 {
						mine = bodies
					}
					_, rb := nbody.Run(c, mine, orb, thr, steps)
					if c.ID() == 0 {
						rebalances = rb
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rebalances), "rebalances")
			b.ReportMetric(st.W().Seconds()*1e3, "Wdepth_ms")
		})
	}
}

// BenchmarkExtensionSampleSort measures the oversampling sample sort
// (DESIGN.md E1) on the shared-memory transport — the sequential
// baseline, then each process count — reporting S and Hpkts: S = 4 at
// every size, the fully predictable cost shape of §4 with a
// deterministic (1+1/ℓ)·n/p imbalance bound.
func BenchmarkExtensionSampleSort(b *testing.B) {
	app, err := apps.Lookup("psort")
	if err != nil {
		b.Fatal(err)
	}
	inst := app.New(100000)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst.Sequential()
		}
	})
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = inst.Run(core.Config{P: p, Transport: transport.ShmTransport{}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.S()), "S")
			b.ReportMetric(float64(st.H()), "Hpkts")
		})
	}
}

// BenchmarkTransportExchange measures a fixed total exchange on every
// transport — the end-to-end library overhead comparison.
func BenchmarkTransportExchange(b *testing.B) {
	const p, msgs = 4, 64
	for _, tr := range []transport.Transport{
		transport.ShmTransport{}, transport.XchgTransport{},
		transport.TCPTransport{}, transport.SimTransport{},
	} {
		b.Run(tr.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Run(core.Config{P: p, Transport: tr}, func(c *core.Proc) {
					var pkt core.Pkt
					for s := 0; s < 4; s++ {
						for dst := 0; dst < p; dst++ {
							for k := 0; k < msgs; k++ {
								c.SendPkt(dst, &pkt)
							}
						}
						c.Sync()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalability projects the study to "several larger machines"
// (§5): N-body and Cannon at 32 and 64 processes on the sim transport,
// with log-extrapolated (g, L).
func BenchmarkScalability(b *testing.B) {
	bodies := nbody.Plummer(4000, 1996)
	n := 192
	a := matmult.RandomMatrix(n, 1)
	bm := matmult.RandomMatrix(n, 2)
	base := map[string]*core.Stats{}
	for _, p := range []int{1, 32, 64} {
		if p > 1 {
			b.Run(fmt.Sprintf("nbody/p=%d", p), func(b *testing.B) {
				var st *core.Stats
				for i := 0; i < b.N; i++ {
					var err error
					_, st, err = nbody.Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, bodies, 1)
					if err != nil {
						b.Fatal(err)
					}
				}
				pr := cost.SGI.ParamsExtrapolated(p)
				pred := pr.Predict(st.W(), st.H(), st.S())
				if b1 := base["nbody"]; b1 != nil {
					pred1 := cost.SGI.Params(1).Predict(b1.W(), b1.H(), b1.S())
					b.ReportMetric(cost.Speedup(pred1, pred), "projSpdpSGI")
				}
				b.ReportMetric(float64(st.S()), "S")
			})
			b.Run(fmt.Sprintf("mm/p=%d", p), func(b *testing.B) {
				if _, err := matmult.GridSide(p); err != nil {
					b.Skip("not a perfect square")
				}
				var st *core.Stats
				for i := 0; i < b.N; i++ {
					var err error
					_, st, err = matmult.Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, a, bm, n)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.H()), "Hpkts")
			})
			continue
		}
		_, stats, err := nbody.Parallel(core.Config{P: 1, Transport: transport.SimTransport{}}, bodies, 1)
		if err != nil {
			b.Fatal(err)
		}
		base["nbody"] = stats
	}
}
