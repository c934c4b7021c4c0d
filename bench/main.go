// Command bench measures time to solution of the Green BSP runtime on
// six workloads, each built to isolate one term of the paper's Eq. 1,
// T = W + g·H + L·S, or a layer only it reaches (checkpoint capture,
// the multi-process launcher). See README.md beside this file.
//
// A run is one complete program execution, Transport.Open to Close: what
// a user pays each time. Runs go one at a time in a closed loop, at
// default GOMAXPROCS, on p = 4 ranks. The timed pass (-trace 0) runs the
// program undecorated and yields the end-to-end metrics; the traced
// pass (-trace 1) alternates undecorated runs with runs on the span
// decorator and yields the per-layer metrics and the tracing overhead.
//
//	bash bench/run.sh -workload ocean-130-tcp -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh                      # every workload, both passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/wire"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer name every metric, in print order. They match
// BENCHMARK.json, which the smoke test checks.
var endToEnd = []metricDef{
	{"wall_ms", "ms"},  // median wall time of one verified run
	{"setup_s", "s"},   // inputs, reference solution, warm-up runs, and for the cluster go build
	{"alloc_mb", "MB"}, // median bytes this process allocates per run, 1e6 bytes
}

var perLayer = []metricDef{
	{"apps.compute_ms", "ms"},
	{"core.self_ms", "ms"},
	{"transport.send_ms", "ms"},
	{"transport.send_msgs", "count"},
	{"transport.send_bytes", "bytes"},
	{"transport.wait_ms", "ms"},
	{"transport.exchange_ms", "ms"},
	{"transport.us_per_superstep", "us"},
	{"transport.ns_per_byte", "ns"},
	{"transport.open_ms", "ms"},
	{"transport.close_ms", "ms"},
	{"wire.frame_ns_16", "ns"},
	{"wire.frame_ns_4k", "ns"},
	{"ckpt.cuts", "count"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.time_ms", "ms"},
	{"ckpt.delta_ms", "ms"},
	{"bsprun.launch_ms", "ms"},
	{"bsprun.rank_sync_ms", "ms"},
	{"bsprun.us_per_superstep", "us"},
	{"bsprun.exec_ms", "ms"},
	{"remainder_ms", "ms"},
	{"S", "count"},
	{"H", "count"},
	{"pkts", "count"},
	{"traced_wall_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
	{"wall_tail_ms", "ms"},
	{"tail_pct", "%"},
	{"runs", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output for one workload and pass.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// plan fixes how much one pass does. The smoke test shrinks it.
type plan struct {
	seconds time.Duration // how long the pass measures
	maxRuns int           // 0: until seconds have passed
	warmups int           // discarded runs that end each set-up
	setups  int           // set-up repeats; setup_s is their median
}

func fullPlan(seconds float64) plan {
	return plan{seconds: time.Duration(seconds * float64(time.Second)), warmups: 5, setups: 3}
}

const ms = float64(time.Millisecond)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of v that has at least ten
// samples beyond it, and which percentile that is. With fewer than
// twenty samples no percentile above the median qualifies and the
// median stands in.
func tail(v []float64) (value, pct float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return median(s), 50
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// setUp generates the workload's inputs and reference solution and ends
// with the plan's warm-up runs, so caches, pools and lazy start-up are
// paid before the first measured run.
func setUp(w workload, seed int64, pl plan, sz sizes, d dirs) (*instance, error) {
	inst, err := w.setup(seed, sz, d)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for i := 0; i < pl.warmups; i++ {
		if _, err := inst.run(nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up run: %w", w.name, err)
		}
	}
	return inst, nil
}

// loop calls run until the plan's time or run count is used up; it
// always runs once.
func loop(pl plan, run func()) {
	deadline := time.Now().Add(pl.seconds)
	for n := 1; ; n++ {
		run()
		if n == pl.maxRuns || !time.Now().Before(deadline) {
			return
		}
	}
}

type tally struct {
	name              string
	attempted, failed int
}

// ok counts one run and reports whether it yields a sample.
func (t *tally) ok(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: run %d failed: %v\n", t.name, t.attempted, err)
	}
	return err == nil
}

// result attaches each metric's unit to its value; a metric without a
// value reads 0.
func (t *tally) result(defs []metricDef, values map[string]float64) result {
	metrics := make(map[string]metric, len(defs))
	for _, m := range defs {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// timedPass measures the end-to-end metrics on the undecorated program.
func timedPass(w workload, seed int64, pl plan, sz sizes, d dirs) (result, error) {
	var inst *instance
	var setups, walls, allocs []float64
	for i := 0; i < pl.setups; i++ {
		t0 := time.Now()
		var err error
		if inst, err = setUp(w, seed, pl, sz, d); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t := tally{name: w.name}
	loop(pl, func() {
		s, err := inst.run(nil)
		if t.ok(err) {
			walls = append(walls, float64(s.wall)/ms)
			allocs = append(allocs, float64(s.alloc)/1e6)
		}
	})
	if inst.allocAfter != nil {
		// As many runs as a set-up's warm-ups: the value repeats within 0.1 %.
		allocs = allocs[:0]
		for i := 0; i < pl.warmups; i++ {
			if s, err := inst.allocAfter(); t.ok(err) {
				allocs = append(allocs, float64(s.alloc)/1e6)
			}
		}
	}
	if len(walls) == 0 || len(allocs) == 0 {
		return result{}, fmt.Errorf("%s: no run succeeded", w.name)
	}
	return t.result(endToEnd, map[string]float64{
		"wall_ms":  median(walls),
		"setup_s":  median(setups),
		"alloc_mb": median(allocs),
	}), nil
}

// series collects one value per run and metric; a pass reports medians.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// tracedPass measures the per-layer metrics. In process it alternates an
// undecorated run, a run on the span decorator and, where the workload
// names a baseline, an undecorated run of that; the cluster's layer
// numbers come from the launches themselves.
func tracedPass(w workload, seed int64, pl plan, sz sizes, d dirs) (result, error) {
	inst, err := setUp(w, seed, pl, sz, d)
	if err != nil {
		return result{}, err
	}
	var baseline *instance
	if b, ok := findWorkload(w.baseline); ok {
		if baseline, err = setUp(b, seed, pl, sz, d); err != nil {
			return result{}, err
		}
	}
	store := newSpanStore(ranks)
	if inst.inProcess {
		// One traced warm-up grows the span slices to a run's size.
		if _, err := inst.run(store); err != nil {
			return result{}, fmt.Errorf("%s: traced warm-up run: %w", w.name, err)
		}
	}
	t := tally{name: w.name}
	var plain, base []float64
	var foldErr error
	layers := series{}
	loop(pl, func() {
		s, err := inst.run(nil)
		if t.ok(err) {
			plain = append(plain, float64(s.wall)/ms)
			if s.cluster != nil {
				addClusterLayers(layers, s)
			}
		}
		if inst.inProcess {
			s, err := inst.run(store)
			if t.ok(err) {
				l, err := fold(store.top, store.ranks)
				if err != nil {
					foldErr = err // a bug in the decorator, not a failed run of the program
					return
				}
				addSpanLayers(layers, s, l)
			}
		}
		if baseline != nil {
			if s, err := baseline.run(nil); t.ok(err) {
				base = append(base, float64(s.wall)/ms)
			}
		}
	})
	if foldErr != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, foldErr)
	}
	if len(plain) == 0 || len(layers["S"]) == 0 {
		return result{}, fmt.Errorf("%s: no run succeeded", w.name)
	}
	values := make(map[string]float64, len(perLayer))
	for name, v := range layers {
		values[name] = median(v)
	}
	if inst.inProcess {
		values["trace_overhead_frac"] = values["traced_wall_ms"]/median(plain) - 1
	} else {
		values["traced_wall_ms"] = median(plain)
	}
	if baseline != nil {
		values["ckpt.delta_ms"] = median(plain) - median(base)
	}
	values["wall_tail_ms"], values["tail_pct"] = tail(plain)
	values["runs"] = float64(len(plain))
	values["wire.frame_ns_16"], values["wire.frame_ns_4k"] = frameNs(16), frameNs(4096)
	return t.result(perLayer, values), nil
}

// addSpanLayers records one traced in-process run: l is the fold of its
// spans, s its Stats. Stats.TotalWork includes the time inside Send, so
// the application's own share is what remains after the decorator's
// send time; what the decorator saw between transport calls beyond that
// work is core's bookkeeping, checkpoint capture included.
func addSpanLayers(out series, s sample, l layerTimes) {
	work := float64(s.work)
	out.add("traced_wall_ms", l.parent/ms)
	out.add("apps.compute_ms", (work-l.send)/ms)
	out.add("core.self_ms", (l.between-work)/ms)
	out.add("transport.send_ms", l.send/ms)
	out.add("transport.send_msgs", float64(l.sendMsgs))
	out.add("transport.send_bytes", float64(l.sendBytes))
	out.add("transport.wait_ms", l.wait/ms)
	out.add("transport.exchange_ms", l.exchange/ms)
	out.add("transport.us_per_superstep", l.exchange/float64(l.syncs)/1e3)
	out.add("transport.ns_per_byte", l.exchange/(float64(l.sendBytes)/ranks))
	out.add("transport.open_ms", l.open/ms)
	out.add("transport.close_ms", l.close/ms)
	out.add("ckpt.cuts", float64(s.cnt.Cuts))
	out.add("ckpt.bytes", float64(s.cnt.CkptBytes))
	out.add("ckpt.time_ms", float64(s.ckpt.Time)/ranks/ms)
	out.add("remainder_ms", (l.parent-l.named())/ms)
	addCounts(out, s.cnt)
}

// addClusterLayers records one launch. Its budget is gang wall = launch
// + rank sync + compute + remainder, the remainder being the spread
// between the slowest rank and the mean.
func addClusterLayers(out series, s sample) {
	l := s.cluster.layers()
	out.add("apps.compute_ms", l.compute/ms)
	out.add("bsprun.launch_ms", l.launch/ms)
	out.add("bsprun.rank_sync_ms", l.rankSync/ms)
	out.add("bsprun.us_per_superstep", l.rankSync/float64(s.cnt.S)/1e3)
	out.add("bsprun.exec_ms", l.exec/ms)
	out.add("remainder_ms", (float64(s.wall)-l.launch-l.rankSync-l.compute)/ms)
	addCounts(out, s.cnt)
}

func addCounts(out series, c counts) {
	out.add("S", float64(c.S))
	out.add("H", float64(c.H))
	out.add("pkts", float64(c.Pkts))
}

// frameNs times the wire layer directly: AppendFrame plus FrameIter.Next
// per message of size bytes over a 1 MiB batch, median of 31 batches.
func frameNs(size int) float64 {
	const batchBytes, reps = 1 << 20, 31
	msg := make([]byte, size)
	n := batchBytes / size
	batch := make([]byte, 0, batchBytes+4*n) // payload plus length prefixes
	var it wire.FrameIter
	var perMsg []float64
	sink := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = wire.AppendFrame(batch, msg)
		}
		it.Reset(batch)
		for v, ok := it.Next(); ok; v, ok = it.Next() {
			sink += len(v)
		}
		perMsg = append(perMsg, float64(time.Since(t0))/float64(n))
	}
	if sink != reps*n*size {
		panic("bench: wire frames lost bytes")
	}
	return median(perMsg)
}

func printMetrics(name string, defs []metricDef, r result) {
	for _, m := range defs {
		fmt.Printf("%-18s %-28s %16.6g %s\n", name, m.name, r.Metrics[m.name].Value, m.unit)
	}
}

// summary is the document of a run over every workload.
type summary struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Host      map[string]any      `json:"host"`
	Workloads map[string][]result `json:"workloads"` // timed pass, then traced pass
	Correct   bool                `json:"correct"`
	Claim     *string             `json:"claim"` // this benchmark defines the baseline; it claims no gain
}

func run() error {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1996, "drives every generated input")
	seconds := flag.Float64("seconds", 15, "how long one pass measures")
	trace := flag.Int("trace", 0, "with one workload: 0 = timed pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	jsonPath := flag.String("json", "", "also write the final JSON document to this file")
	flag.Parse()

	d := dirs{module: "bench", build: ".bench_build"}
	if _, err := os.Stat(d.module + "/go.mod"); err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	}
	pl := fullPlan(*seconds)
	var doc any
	correct := true
	if *name == "all" {
		host, _ := os.Hostname()
		sum := summary{Seed: *seed, Seconds: *seconds, Workloads: map[string][]result{}, Host: map[string]any{
			"host": host, "nproc": runtime.NumCPU(), "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		}}
		for _, w := range workloads {
			timed, err := timedPass(w, *seed, pl, fullSizes, d)
			if err != nil {
				return err
			}
			printMetrics(w.name, endToEnd, timed)
			traced, err := tracedPass(w, *seed, pl, fullSizes, d)
			if err != nil {
				return err
			}
			printMetrics(w.name, perLayer, traced)
			sum.Workloads[w.name] = []result{timed, traced}
			correct = correct && timed.Correct && traced.Correct
		}
		sum.Correct = correct
		doc = sum
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		pass, defs := timedPass, endToEnd
		if *trace != 0 {
			pass, defs = tracedPass, perLayer
		}
		r, err := pass(w, *seed, pl, fullSizes, d)
		if err != nil {
			return err
		}
		printMetrics(w.name, defs, r)
		correct, doc = r.Correct, r
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(line, '\n'), 0o666); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", line)
	if !correct {
		return fmt.Errorf("verification failed on at least one run")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
