package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/ocean"
)

// tinySizes keep the smoke test to seconds; ocean's size is the grid
// with its boundary, so 18 is a 16 × 16 interior.
var tinySizes = sizes{hrelSteps: 5, hrelMsgs: 4, hrelBytes: 256, oceanSize: 18, sortKeys: 20_000}

type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// Every workload, two runs per pass on tiny inputs: both passes verify
// every run and emit exactly the metrics BENCHMARK.json names, with its
// units.
func TestEveryWorkloadEmitsTheContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	pl := plan{seconds: time.Minute, maxRuns: 2, warmups: 1, setups: 1}
	d := dirs{module: ".", build: t.TempDir()}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q, or their reasons differ", i, c.Workloads[i].Name, w.name)
		}
		passes := []struct {
			name string
			run  func(workload, int64, plan, sizes, dirs) (result, error)
			want []struct{ Name, Unit string }
		}{{"timed", timedPass, c.EndToEnd}, {"traced", tracedPass, c.PerLayer}}
		for _, pass := range passes {
			r, err := pass.run(w, 7, pl, tinySizes, d)
			if err != nil {
				t.Errorf("%s %s pass: %v", w.name, pass.name, err)
				continue
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < pl.maxRuns {
				t.Errorf("%s %s pass: correct=%v attempted=%d failed=%d", w.name, pass.name, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(pass.want) {
				t.Errorf("%s %s pass emits %d metrics, BENCHMARK.json names %d", w.name, pass.name, len(r.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s %s pass: metric %s = %+v (present %v), want unit %q", w.name, pass.name, m.Name, got, ok, m.Unit)
				}
			}
			if pass.name == "timed" {
				for name, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestVerificationRejectsCorruptedOutput(t *testing.T) {
	keys := []float64{1, 2, 3, 5, 8}
	sum := keyChecksum(keys)
	if err := verifySorted(keys, len(keys), sum); err != nil {
		t.Errorf("sorted permutation rejected: %v", err)
	}
	for name, out := range map[string][]float64{
		"unsorted":     {1, 3, 2, 5, 8},
		"changed key":  {1, 2, 3, 5, 9},
		"repeated key": {1, 2, 3, 3, 8},
		"lost key":     {1, 2, 3, 5},
	} {
		if verifySorted(out, len(keys), sum) == nil {
			t.Errorf("verifySorted accepted output with %s", name)
		}
	}

	ref := &ocean.Fields{M: 1, Psi: []float64{0, 0.25, -0.5}}
	flipped := &ocean.Fields{M: 1, Psi: []float64{0, math.Float64frombits(math.Float64bits(0.25) ^ 1), -0.5}}
	if err := verifyFields(ref, ref); err != nil {
		t.Errorf("identical fields rejected: %v", err)
	}
	if verifyFields(flipped, ref) == nil {
		t.Error("verifyFields accepted a field that differs in its last bit")
	}

	deliver := func(corrupt func(step, src, k int, m []byte) []byte) int {
		chk := newHrelCheck(0, 3, 2, 16)
		for step := 0; step < 2; step++ {
			got := 0
			for src := 1; src < 3; src++ {
				for k := 0; k < 2; k++ {
					m := make([]byte, 16)
					putHrelHeader(m, src, step, k)
					if m = corrupt(step, src, k, m); m != nil {
						chk.message(step, m)
						got++
					}
				}
			}
			chk.endStep(got)
		}
		return chk.bad
	}
	if bad := deliver(func(_, _, _ int, m []byte) []byte { return m }); bad != 0 {
		t.Errorf("clean h-relation: %d bad deliveries", bad)
	}
	for name, corrupt := range map[string]func(step, src, k int, m []byte) []byte{
		"a dropped message": func(step, src, k int, m []byte) []byte {
			if step == 1 && src == 2 && k == 1 {
				return nil
			}
			return m
		},
		"a stale superstep":   func(step, src, k int, m []byte) []byte { putHrelHeader(m, src, 0, k); return m },
		"a duplicate":         func(step, src, k int, m []byte) []byte { putHrelHeader(m, src, step, 0); return m },
		"a truncated message": func(step, src, k int, m []byte) []byte { return m[:12] },
		"a message from self": func(step, src, k int, m []byte) []byte { putHrelHeader(m, 0, step, k); return m },
	} {
		if deliver(corrupt) == 0 {
			t.Errorf("hrelCheck accepted %s", name)
		}
	}

	want := counts{S: 10, H: 70, Pkts: 200}
	out := clusterOutput{simH: 70, ranks: []clusterRank{{rank: 0, s: 10, pkts: 150}, {rank: 1, s: 10, pkts: 50}}}
	if err := verifyCluster(out, 2, want); err != nil {
		t.Errorf("matching cluster report rejected: %v", err)
	}
	out.ranks[1].s = 9
	if verifyCluster(out, 2, want) == nil {
		t.Error("verifyCluster accepted a rank with a different S")
	}
	out.ranks[1] = clusterRank{rank: 1, s: 10, pkts: 49}
	if verifyCluster(out, 2, want) == nil {
		t.Error("verifyCluster accepted a different packet total")
	}
	if verifyCheckpoint(t.TempDir(), 2, 4) == nil {
		t.Error("verifyCheckpoint accepted an empty directory")
	}
}

func TestParseClusterReport(t *testing.T) {
	report := `bsprun: cluster: launching generation epoch=0 (p=2, resume=false)
ocean size=130 rank 1/2 of bsprun-ocean-p2-1 (epoch 0): wall 183.241ms, P=2 S=1244 W=5.009855ms H=64509 totalwork=5.009855ms pkts=64509
ocean size=130 rank 0/2 of bsprun-ocean-p2-1 (epoch 0): wall 188.075571ms, P=2 S=1244 W=4.42886ms H=32289 totalwork=4.42886ms pkts=32289
ocean size=130 p=2 on cluster: wall 196.859009ms (2 rank process(es) over loopback TCP)
  sim measurement: W = 5.6287ms   H = 64509   S = 1244   total work = 14.461516ms
`
	var out clusterOutput
	if err := parseCluster(&out, []byte(report)); err != nil {
		t.Fatal(err)
	}
	if out.gangWall != 196859009 || out.simH != 64509 || len(out.ranks) != 2 ||
		out.ranks[0] != (clusterRank{rank: 1, s: 1244, pkts: 64509, wall: 183241 * time.Microsecond, work: 5009855}) {
		t.Errorf("parsed %+v", out)
	}
	l := out.layers()
	if l.launch != 196859009-188075571 || l.compute != (5009855+4428860)/2.0 {
		t.Errorf("layers %+v", l)
	}
	if parseCluster(&clusterOutput{}, []byte("ocean size=130 p=2 on shm: wall 1ms")) == nil {
		t.Error("parseCluster accepted a report without rank lines")
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 1..100, unsorted
	}
	if got, pct := tail(v); got != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90: ten samples lie beyond it", got, pct)
	}
	if got, pct := tail(v[:7]); pct != 50 || got != median(v[:7]) {
		t.Errorf("tail of 7 samples = %v at p%v, want the median", got, pct)
	}
}
