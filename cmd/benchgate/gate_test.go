package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: some CPU
BenchmarkExchangeAllocs-8      	   22150	     54012 ns/op	    1347 B/op	       0 allocs/op
BenchmarkExchangeAllocs-8      	   23308	     51493 ns/op	    1350 B/op	       0 allocs/op
BenchmarkCheckpointDisabled-8  	   19318	     61958 ns/op	    1701 B/op	       5 allocs/op
BenchmarkCheckpointEvery1-8    	     252	   4718556 ns/op	  246454 B/op	     320 allocs/op
PASS
ok  	repro/internal/core	8.1s
goos: linux
goarch: amd64
pkg: repro/internal/psort
cpu: some CPU
BenchmarkSampleSortUniform-8   	     142	   7007549 ns/op	  16.29 MB/s	  703610 B/op	     207 allocs/op
BenchmarkSampleSortZipfian-8   	     196	   5425887 ns/op	  23.67 MB/s	  713595 B/op	     207 allocs/op
PASS
ok  	repro/internal/psort	11.1s
goos: linux
goarch: amd64
pkg: repro/internal/transport
cpu: some CPU
BenchmarkClusterExchange-8     	   12589	     87988 ns/op	  46.55 MB/s	     672 B/op	      28 allocs/op
BenchmarkClusterExchange-8     	   10000	    105455 ns/op	  38.84 MB/s	     672 B/op	      28 allocs/op
PASS
ok  	repro/internal/transport	5.3s
`

func TestParseBenchOutput(t *testing.T) {
	results, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d benchmarks, want 6: %v", len(results), results)
	}
	ex := results["BenchmarkExchangeAllocs"]
	if ex.Runs != 2 {
		t.Errorf("ExchangeAllocs runs = %d, want 2", ex.Runs)
	}
	if ex.NsPerOp != 51493 {
		t.Errorf("ExchangeAllocs min ns/op = %v, want 51493", ex.NsPerOp)
	}
	if ex.BytesPerOp != 1347 {
		t.Errorf("ExchangeAllocs min B/op = %v, want 1347", ex.BytesPerOp)
	}
	if ex.AllocsPerOp != 0 {
		t.Errorf("ExchangeAllocs allocs/op = %v, want 0", ex.AllocsPerOp)
	}
	if ck := results["BenchmarkCheckpointEvery1"]; ck.NsPerOp != 4718556 || ck.AllocsPerOp != 320 {
		t.Errorf("CheckpointEvery1 = %+v", ck)
	}
	// The MB/s column between ns/op and B/op must not confuse the parser.
	if so := results["BenchmarkSampleSortZipfian"]; so.NsPerOp != 5425887 || so.AllocsPerOp != 207 || so.BytesPerOp != 713595 {
		t.Errorf("SampleSortZipfian = %+v", so)
	}
	if cl := results["BenchmarkClusterExchange"]; cl.NsPerOp != 87988 || cl.AllocsPerOp != 28 || cl.Runs != 2 {
		t.Errorf("ClusterExchange = %+v", cl)
	}
}

func TestParseBenchOutputNoBenchmem(t *testing.T) {
	results, err := parseBenchOutput(strings.NewReader("BenchmarkFoo-4  100  2500 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := results["BenchmarkFoo"]
	if r.NsPerOp != 2500 || r.AllocsPerOp != -1 {
		t.Errorf("got %+v, want ns 2500 and allocs -1 (unmeasured)", r)
	}
}

func TestParseBenchOutputBadNumber(t *testing.T) {
	if _, err := parseBenchOutput(strings.NewReader("BenchmarkFoo-4  100  abc ns/op\n")); err == nil {
		t.Fatal("malformed ns/op accepted")
	}
}

// writeBaselines writes BENCH_exchange.json / BENCH_ckpt.json /
// BENCH_sort.json / BENCH_cluster.json shaped fixtures matching the
// sample output above exactly.
func writeBaselines(t *testing.T) (exchange, ckpt, sortb, cluster string) {
	t.Helper()
	dir := t.TempDir()
	exchange = filepath.Join(dir, "BENCH_exchange.json")
	ckpt = filepath.Join(dir, "BENCH_ckpt.json")
	sortb = filepath.Join(dir, "BENCH_sort.json")
	cluster = filepath.Join(dir, "BENCH_cluster.json")
	writeJSON(t, exchange, map[string]any{
		"after": map[string]any{"ns_per_op": 51493.0, "bytes_per_op": 1347.0, "allocs_per_op": 0.0},
	})
	writeJSON(t, ckpt, map[string]any{
		"disabled": map[string]any{"ns_per_op": 61958.0, "bytes_per_op": 1701.0, "allocs_per_op": 5.0},
		"every_1":  map[string]any{"ns_per_op": 4718556.0, "bytes_per_op": 246454.0, "allocs_per_op": 320.0},
	})
	writeJSON(t, sortb, map[string]any{
		"uniform": map[string]any{"ns_per_op": 7007549.0, "bytes_per_op": 703610.0, "allocs_per_op": 207.0},
		"zipfian": map[string]any{"ns_per_op": 5425887.0, "bytes_per_op": 713595.0, "allocs_per_op": 207.0},
	})
	writeJSON(t, cluster, map[string]any{
		"exchange": map[string]any{"ns_per_op": 87988.0, "bytes_per_op": 672.0, "allocs_per_op": 28.0},
	})
	return exchange, ckpt, sortb, cluster
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBaselines(t *testing.T) {
	exchange, ckpt, sortb, cluster := writeBaselines(t)
	baselines, err := loadBaselines(exchange, ckpt, sortb, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) != 6 {
		t.Fatalf("got %d baselines, want 6", len(baselines))
	}
	byName := map[string]Baseline{}
	for _, b := range baselines {
		byName[b.Name] = b
	}
	if b := byName["BenchmarkExchangeAllocs"]; b.NsPerOp != 51493 || b.AllocsPerOp != 0 || b.AllocSlack != 0 {
		t.Errorf("exchange baseline = %+v", b)
	}
	if b := byName["BenchmarkCheckpointEvery1"]; b.NsPerOp != 4718556 || b.AllocsPerOp != 320 {
		t.Errorf("every_1 baseline = %+v", b)
	}
	if b := byName["BenchmarkSampleSortZipfian"]; b.NsPerOp != 5425887 || b.AllocsPerOp != 207 || b.AllocSlack != sortAllocSlack {
		t.Errorf("zipfian baseline = %+v", b)
	}
	if b := byName["BenchmarkClusterExchange"]; b.NsPerOp != 87988 || b.AllocsPerOp != 28 || !b.AllocExact {
		t.Errorf("cluster baseline = %+v", b)
	}
}

// TestCompareCleanPass: results exactly at baseline pass any
// nonnegative tolerance.
func TestCompareCleanPass(t *testing.T) {
	exchange, ckpt, sortb, cluster := writeBaselines(t)
	baselines, err := loadBaselines(exchange, ckpt, sortb, cluster)
	if err != nil {
		t.Fatal(err)
	}
	results, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if problems := compare(baselines, results, 0.5, 4); len(problems) != 0 {
		t.Fatalf("clean run flagged: %v", problems)
	}
	if problems := compare(baselines, results, 0, 0); len(problems) != 0 {
		t.Fatalf("exact-baseline run flagged at zero tolerance: %v", problems)
	}
}

// TestCompareImpossibleTolerance: a negative tolerance shrinks every
// limit below the baseline itself, so the same clean results must fail
// — the gate demonstrably bites.
func TestCompareImpossibleTolerance(t *testing.T) {
	exchange, ckpt, sortb, cluster := writeBaselines(t)
	baselines, err := loadBaselines(exchange, ckpt, sortb, cluster)
	if err != nil {
		t.Fatal(err)
	}
	results, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	problems := compare(baselines, results, -0.5, 4)
	if len(problems) != 6 {
		t.Fatalf("impossible tolerance produced %d problems, want 6: %v", len(problems), problems)
	}
	for _, p := range problems {
		if !strings.Contains(p, "ns/op exceeds baseline") {
			t.Errorf("unexpected problem text %q", p)
		}
	}
}

func TestCompareAllocRegression(t *testing.T) {
	baselines := []Baseline{{Name: "BenchmarkExchangeAllocs", NsPerOp: 50000, AllocsPerOp: 0}}
	results := map[string]Result{
		"BenchmarkExchangeAllocs": {Name: "BenchmarkExchangeAllocs", NsPerOp: 50000, AllocsPerOp: 12, Runs: 1},
	}
	problems := compare(baselines, results, 0.5, 4)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op exceeds baseline") {
		t.Fatalf("alloc regression not flagged: %v", problems)
	}
}

// TestComparePerBaselineAllocSlack: a baseline's own AllocSlack widens
// the band past the gate-wide value — and still bites beyond it.
func TestComparePerBaselineAllocSlack(t *testing.T) {
	baselines := []Baseline{{Name: "BenchmarkSampleSortZipfian", NsPerOp: 5425887, AllocsPerOp: 207, AllocSlack: 8}}
	within := map[string]Result{
		"BenchmarkSampleSortZipfian": {Name: "BenchmarkSampleSortZipfian", NsPerOp: 5425887, AllocsPerOp: 213, Runs: 1},
	}
	if problems := compare(baselines, within, 0.5, 4); len(problems) != 0 {
		t.Fatalf("+6 allocs flagged despite per-baseline slack 8: %v", problems)
	}
	beyond := map[string]Result{
		"BenchmarkSampleSortZipfian": {Name: "BenchmarkSampleSortZipfian", NsPerOp: 5425887, AllocsPerOp: 220, Runs: 1},
	}
	if problems := compare(baselines, beyond, 0.5, 4); len(problems) != 1 || !strings.Contains(problems[0], "allocs/op exceeds baseline") {
		t.Fatalf("+13 allocs not flagged: %v", problems)
	}
}

// TestCompareAllocExact: an exact baseline takes no slack at all, not
// even the gate-wide one — a single allocation over is a failure.
func TestCompareAllocExact(t *testing.T) {
	baselines := []Baseline{{Name: "BenchmarkClusterExchange", NsPerOp: 66000, AllocsPerOp: 0, AllocExact: true}}
	at := map[string]Result{
		"BenchmarkClusterExchange": {Name: "BenchmarkClusterExchange", NsPerOp: 66000, AllocsPerOp: 0, Runs: 1},
	}
	if problems := compare(baselines, at, 0.5, 4); len(problems) != 0 {
		t.Fatalf("at-baseline run flagged: %v", problems)
	}
	over := map[string]Result{
		"BenchmarkClusterExchange": {Name: "BenchmarkClusterExchange", NsPerOp: 66000, AllocsPerOp: 1, Runs: 1},
	}
	if problems := compare(baselines, over, 0.5, 4); len(problems) != 1 || !strings.Contains(problems[0], "allocs/op exceeds baseline") {
		t.Fatalf("+1 alloc on an exact baseline not flagged: %v", problems)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	baselines := []Baseline{{Name: "BenchmarkGone", NsPerOp: 1000, AllocsPerOp: 0}}
	problems := compare(baselines, map[string]Result{}, 10, 100)
	if len(problems) != 1 || !strings.Contains(problems[0], "no measurement") {
		t.Fatalf("missing benchmark not flagged: %v", problems)
	}
}

func TestAppendTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_run.json")
	first := RunEntry{Commit: "abc1234", Date: "2026-08-06", Count: 3, Tolerance: 0.5, Pass: true,
		Results: []Result{{Name: "BenchmarkExchangeAllocs", NsPerOp: 51493, Runs: 3}}}
	if err := appendTrajectory(path, first); err != nil {
		t.Fatal(err)
	}
	second := RunEntry{Commit: "def5678", Pass: false, Problems: []string{"too slow"}}
	if err := appendTrajectory(path, second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs []RunEntry
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatalf("trajectory is not a JSON array: %v\n%s", err, raw)
	}
	if len(runs) != 2 || runs[0].Commit != "abc1234" || runs[1].Commit != "def5678" {
		t.Fatalf("trajectory = %+v", runs)
	}
	if runs[1].Pass || len(runs[1].Problems) != 1 {
		t.Errorf("failing entry not preserved: %+v", runs[1])
	}

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendTrajectory(path, first); err == nil {
		t.Fatal("corrupt trajectory silently overwritten")
	}
}
