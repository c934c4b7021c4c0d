package main

// The benchmark-regression gate's moving parts, separated from main
// for testing: parse `go test -bench` output, reduce repeated runs to
// their best case, compare against the checked-in baselines with a
// tolerance band, and append the run to the BENCH_run.json trajectory.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's reduced measurement: the minimum over the
// repeated runs (the least-noisy estimate of the true cost on a busy
// host) plus the run count.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Runs        int     `json:"runs"`
}

// parseBenchOutput reads `go test -bench -benchmem` text and reduces
// each benchmark (GOMAXPROCS suffix stripped) to its minimum ns/op,
// B/op and allocs/op across -count repetitions.
func parseBenchOutput(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// BenchmarkName-8  N  ns/op  [B/op  allocs/op]
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		res := Result{Name: name, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1, Runs: 1}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if prev, ok := out[name]; ok {
			res.Runs = prev.Runs + 1
			res.NsPerOp = min(res.NsPerOp, prev.NsPerOp)
			res.BytesPerOp = min(res.BytesPerOp, prev.BytesPerOp)
			res.AllocsPerOp = min(res.AllocsPerOp, prev.AllocsPerOp)
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Baseline is one benchmark's checked-in reference measurement.
type Baseline struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
	// AllocSlack, when positive, overrides the gate-wide allocs/op
	// slack for this baseline — benchmarks whose whole-machine alloc
	// count wobbles with goroutine scheduling need a wider band than
	// the steady-state exchange path's near-zero one.
	AllocSlack float64
	// AllocExact pins allocs/op at the baseline with no slack at all:
	// for paths whose steady state is allocation-free by construction,
	// where any creep is a bug and not noise.
	AllocExact bool
}

// benchRecord is the shared shape of the measurement blocks inside
// BENCH_exchange.json and BENCH_ckpt.json.
type benchRecord struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// sortAllocSlack is the per-baseline allocs/op band of the sort
// benchmarks: the count is whole-machine and flat in n, but inbox
// growth is goroutine-scheduling-dependent, so it wobbles by a few.
const sortAllocSlack = 8

// loadBaselines reads the checked-in baseline files and maps each
// gated benchmark to its reference numbers: the exchange file's
// "after" block gates BenchmarkExchangeAllocs, the checkpoint file's
// "disabled" and "every_1" blocks gate the two checkpoint benchmarks,
// the sort file's "uniform" and "zipfian" blocks gate the two
// sample-sort benchmarks, and the cluster file's "exchange" block
// gates the loopback-TCP cluster total exchange.
func loadBaselines(exchangePath, ckptPath, sortPath, clusterPath string) ([]Baseline, error) {
	var ex struct {
		After benchRecord `json:"after"`
	}
	if err := readJSON(exchangePath, &ex); err != nil {
		return nil, err
	}
	var ck struct {
		Disabled benchRecord `json:"disabled"`
		Every1   benchRecord `json:"every_1"`
	}
	if err := readJSON(ckptPath, &ck); err != nil {
		return nil, err
	}
	var so struct {
		Uniform benchRecord `json:"uniform"`
		Zipfian benchRecord `json:"zipfian"`
	}
	if err := readJSON(sortPath, &so); err != nil {
		return nil, err
	}
	var cl struct {
		Exchange benchRecord `json:"exchange"`
	}
	if err := readJSON(clusterPath, &cl); err != nil {
		return nil, err
	}
	return []Baseline{
		{Name: "BenchmarkExchangeAllocs", NsPerOp: ex.After.NsPerOp, AllocsPerOp: ex.After.AllocsPerOp},
		{Name: "BenchmarkCheckpointDisabled", NsPerOp: ck.Disabled.NsPerOp, AllocsPerOp: ck.Disabled.AllocsPerOp},
		{Name: "BenchmarkCheckpointEvery1", NsPerOp: ck.Every1.NsPerOp, AllocsPerOp: ck.Every1.AllocsPerOp},
		{Name: "BenchmarkSampleSortUniform", NsPerOp: so.Uniform.NsPerOp, AllocsPerOp: so.Uniform.AllocsPerOp, AllocSlack: sortAllocSlack},
		{Name: "BenchmarkSampleSortZipfian", NsPerOp: so.Zipfian.NsPerOp, AllocsPerOp: so.Zipfian.AllocsPerOp, AllocSlack: sortAllocSlack},
		{Name: "BenchmarkClusterExchange", NsPerOp: cl.Exchange.NsPerOp, AllocsPerOp: cl.Exchange.AllocsPerOp, AllocExact: true},
	}, nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return nil
}

// compare gates the measured results against the baselines: ns/op may
// exceed the reference by at most the tolerance multiplier (latency is
// host-dependent, so the band is wide), and allocs/op — which is
// host-independent — by at most allocSlack allocations (or the
// baseline's own AllocSlack when set, or none under AllocExact). A
// missing benchmark is a failure: a gate that silently stops measuring
// is no gate. Returns one line per violation, deterministic order.
func compare(baselines []Baseline, results map[string]Result, tolerance, allocSlack float64) []string {
	var problems []string
	sorted := append([]Baseline(nil), baselines...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, b := range sorted {
		res, ok := results[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no measurement (benchmark missing from output)", b.Name))
			continue
		}
		if limit := b.NsPerOp * (1 + tolerance); res.NsPerOp > limit {
			problems = append(problems, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op +%.0f%% tolerance (limit %.0f)",
				b.Name, res.NsPerOp, b.NsPerOp, 100*tolerance, limit))
		}
		if res.AllocsPerOp >= 0 {
			slack := allocSlack
			switch {
			case b.AllocExact:
				slack = 0
			case b.AllocSlack > 0:
				slack = b.AllocSlack
			}
			if limit := b.AllocsPerOp + slack; res.AllocsPerOp > limit {
				problems = append(problems, fmt.Sprintf("%s: %.1f allocs/op exceeds baseline %.1f +%.1f slack",
					b.Name, res.AllocsPerOp, b.AllocsPerOp, slack))
			}
		}
	}
	return problems
}

// RunEntry is one gate invocation in the BENCH_run.json trajectory.
type RunEntry struct {
	Commit     string   `json:"commit"`
	Date       string   `json:"date"`
	Count      int      `json:"count"`
	Tolerance  float64  `json:"tolerance"`
	AllocSlack float64  `json:"alloc_slack"`
	Pass       bool     `json:"pass"`
	Problems   []string `json:"problems,omitempty"`
	Results    []Result `json:"results"`
}

// appendTrajectory appends entry to the JSON array at path (created if
// absent), keeping the run history of the gate across commits.
func appendTrajectory(path string, entry RunEntry) error {
	var runs []RunEntry
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &runs); err != nil {
			return fmt.Errorf("benchgate: %s holds invalid history: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	runs = append(runs, entry)
	out, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
