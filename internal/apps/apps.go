// Package apps is the application registry: one App value per program
// written against the three BSP operations, collected in the one
// ordered slice All — the paper's six applications (ocean, nbody, mst,
// sp, msp, mm) and the sample sort psort with its Zipf-keyed psortz.
// The evaluation harness, bsprun, bsptables, the root benchmarks and
// the cross-transport conformance suite all iterate it, so none of them
// knows an application by name — adding an application is one entry in
// All and nothing else.
package apps

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/matmult"
	"repro/internal/msp"
	"repro/internal/mst"
	"repro/internal/nbody"
	"repro/internal/ocean"
	"repro/internal/psort"
	"repro/internal/sp"
)

// App is one application's registration.
type App struct {
	// Name is the -app value and the key of the paper's tables.
	Name string
	// Sizes are the scaled-down benchmark input sizes, smallest first,
	// in the application's own size convention (grid side, bodies,
	// nodes, matrix dimension, keys, ...).
	Sizes []int
	// FullMax caps the paper-scale sizes a -full evaluation runs; 0
	// runs them all.
	FullMax int
	// ValidP reports why the application cannot run on p processes;
	// nil accepts every p >= 1.
	ValidP func(p int) error
	// New prepares the deterministic input of the given size once, for
	// any number of runs.
	New func(size int) Instance
	// CostReport, when set, prints the application's own predicted cost
	// shape for (size, p) on the named machine next to a run's measured
	// statistics.
	CostReport func(w io.Writer, machine string, pm cost.Params, size, p int, st *core.Stats)
}

// Instance is one prepared input. Neither function modifies it, so an
// instance can be run any number of times, on any machine.
type Instance struct {
	// Sequential is the one-processor baseline program.
	Sequential func()
	// Run executes the BSP program on the configured machine and returns
	// its result — the same value, bit for bit, on every transport and
	// across crash recovery — with the run statistics. With
	// cfg.Checkpoint armed the run survives recoverable faults.
	Run func(cfg core.Config) (result any, st *core.Stats, err error)
}

// CheckP reports whether the application can run on p processes.
func (a App) CheckP(p int) error {
	if p < 1 {
		return fmt.Errorf("app %s: p must be >= 1, got %d", a.Name, p)
	}
	if a.ValidP == nil {
		return nil
	}
	return a.ValidP(p)
}

// inputSeed seeds every generated input, so a (name, size) pair names
// one workload everywhere.
const inputSeed = 1996

// All is the registry, in presentation order: the paper's six
// applications, then the sample sort of §4 over two key distributions.
var All = []App{
	{
		// One timestep, like the paper's per-run measurement (their S
		// values match a single multigrid-driven step).
		Name: "ocean", Sizes: []int{18, 34, 66},
		New: func(size int) Instance {
			cfg := ocean.Config{Size: size, Steps: 1}
			return Instance{
				Sequential: func() {
					if _, _, err := ocean.Sequential(cfg); err != nil {
						panic(err)
					}
				},
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(ocean.Parallel(c, cfg))
				},
			}
		},
	},
	{
		// 256k bodies need hours of simulation; see the -full docs.
		Name: "nbody", Sizes: []int{256, 512, 1000}, FullMax: 64000,
		ValidP: func(p int) error { _, err := nbody.BuildORB(nil, p, nbody.Box{}); return err },
		New: func(size int) Instance {
			bodies := nbody.Plummer(size, inputSeed)
			return Instance{
				Sequential: func() { nbody.Sequential(append([]nbody.Body(nil), bodies...), 1) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(nbody.Parallel(c, bodies, 1))
				},
			}
		},
	},
	{
		Name: "mst", Sizes: []int{500, 1000, 2500},
		New: func(size int) Instance {
			g := graph.Geometric(size, inputSeed)
			return Instance{
				Sequential: func() { mst.Sequential(g) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(mst.Parallel(c, g))
				},
			}
		},
	},
	{
		Name: "sp", Sizes: []int{500, 1000, 2500},
		New: func(size int) Instance {
			g := graph.Geometric(size, inputSeed)
			return Instance{
				Sequential: func() { graph.Dijkstra(g, 0) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(sp.ParallelSingle(c, g, 0, sp.DefaultWorkFactor))
				},
			}
		},
	},
	{
		Name: "msp", Sizes: []int{500, 1000, 2500},
		New: func(size int) Instance {
			g := graph.Geometric(size, inputSeed)
			srcs := msp.Sources(g, msp.DefaultSources, inputSeed)
			return Instance{
				Sequential: func() { graph.MultiDijkstra(g, srcs) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(sp.Parallel(c, g, srcs, sp.DefaultWorkFactor))
				},
			}
		},
	},
	{
		Name: "mm", Sizes: []int{48, 96, 144},
		ValidP: func(p int) error { _, err := matmult.GridSide(p); return err },
		New: func(size int) Instance {
			a, b := matmult.RandomMatrix(size, inputSeed), matmult.RandomMatrix(size, inputSeed+1)
			return Instance{
				Sequential: func() { matmult.Sequential(a, b, size) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(matmult.Parallel(c, a, b, size))
				},
			}
		},
	},
	sortApp("psort", psort.RandomData),
	// Zipf-skewed keys: the duplicate-heavy distribution that the tagged
	// splitters keep within the (1+1/ℓ)·n/p imbalance bound.
	sortApp("psortz", psort.ZipfData),
}

// sortApp registers the sample sort over one key distribution.
func sortApp(name string, keys func(n int, seed int64) []float64) App {
	return App{
		Name: name, Sizes: []int{1000, 4000, 16000},
		New: func(size int) Instance {
			data := keys(size, inputSeed)
			return Instance{
				Sequential: func() { sort.Float64s(append([]float64(nil), data...)) },
				Run: func(c core.Config) (any, *core.Stats, error) {
					return result(psort.Parallel(c, data))
				},
			}
		},
		CostReport: func(w io.Writer, machine string, pm cost.Params, size, p int, st *core.Stats) {
			psort.WriteCostReport(w, machine, pm, size, p, st)
		},
	}
}

// result adapts an application's typed (result, stats, error) return to
// Instance.Run's.
func result[T any](res T, st *core.Stats, err error) (any, *core.Stats, error) {
	return res, st, err
}

// Names lists the registered names in order.
func Names() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// Lookup finds a registration by name.
func Lookup(name string) (App, error) {
	for _, a := range All {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (registered: %s)", name, strings.Join(Names(), ", "))
}
