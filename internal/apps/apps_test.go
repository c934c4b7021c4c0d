package apps

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/cost_golden.txt from the sim transport")

// conformanceP is the machine size of the cross-transport suite: every
// registered application runs on it (a square and a power of two).
const conformanceP = 4

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All {
		if seen[a.Name] {
			t.Errorf("%s registered twice", a.Name)
		}
		seen[a.Name] = true
		if len(a.Sizes) == 0 {
			t.Errorf("%s: no sizes", a.Name)
		}
		for i := 1; i < len(a.Sizes); i++ {
			if a.Sizes[i] <= a.Sizes[i-1] {
				t.Errorf("%s: sizes %v not ascending", a.Name, a.Sizes)
			}
		}
		if err := a.CheckP(conformanceP); err != nil {
			t.Errorf("%s: cannot run the conformance suite at p=%d: %v", a.Name, conformanceP, err)
		}
		if err := a.CheckP(0); err == nil {
			t.Errorf("%s: accepted p=0", a.Name)
		}
		if got, err := Lookup(a.Name); err != nil || got.Name != a.Name {
			t.Errorf("Lookup(%s) = %v, %v", a.Name, got.Name, err)
		}
	}
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "psortz") {
		t.Errorf("Lookup(bogus) = %v, want an error listing the registered names", err)
	}
	// README's -app list is this registry's, so it cannot drift.
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if list := "`-app " + strings.Join(Names(), "|") + "`"; !bytes.Contains(readme, []byte(list)) {
		t.Errorf("README.md does not carry the registered -app list %s", list)
	}
}

// simRun prepares a's smallest input and runs it on the deterministic
// simulator: the reference every conformance row compares against.
func simRun(t *testing.T, a App) (Instance, any, *core.Stats) {
	t.Helper()
	inst := a.New(a.Sizes[0])
	want, st, err := inst.Run(core.Config{P: conformanceP, Transport: transport.SimTransport{}})
	if err != nil {
		t.Fatalf("%s on sim: %v", a.Name, err)
	}
	return inst, want, st
}

// TestConformanceTransports is the paper's portability claim as a
// table: every registered application, unchanged, on every transport,
// returns the result the deterministic simulator returns — bit for bit
// — with the same (H, S). The last row arms checkpointing at every
// boundary: an armed run takes the same path as an unarmed one.
func TestConformanceTransports(t *testing.T) {
	for _, a := range All {
		t.Run(a.Name, func(t *testing.T) {
			inst, want, wantSt := simRun(t, a)
			for _, row := range []struct {
				name string
				ck   *core.CheckpointConfig
			}{
				{"shm", nil}, {"xchg", nil}, {"tcp", nil}, {"cluster", nil},
				{"shm", &core.CheckpointConfig{Dir: t.TempDir(), Every: 1}},
			} {
				name := row.name
				if row.ck != nil {
					name += " armed"
				}
				tr, err := transport.New(row.name)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := inst.Run(core.Config{P: conformanceP, Transport: tr, SyncTimeout: 30 * time.Second, Checkpoint: row.ck})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result differs from sim's", name)
				}
				if st.H() != wantSt.H() || st.S() != wantSt.S() {
					t.Errorf("%s: (H, S) = (%d, %d), sim measured (%d, %d)", name, st.H(), st.S(), wantSt.H(), wantSt.S())
				}
			}
		})
	}
}

// keepsState names the applications that keep state with Proc.Keep;
// each cuts at superstep 1, its first boundary. That cut is certain to
// be committed only once the crash comes two supersteps after it: on
// tcp a crash in superstep 2 can abort a peer still inside its Sync 1,
// before the peer's capture.
var keepsState = map[string]bool{"ocean": true, "psort": true, "psortz": true}

// TestConformanceRecovery crashes one seeded rank in one seeded
// superstep of every application with Checkpoint armed and requires the
// recovered run to return the fault-free result: from a snapshot where
// the application has checkpoint hooks, from superstep 0 where not. An
// application that keeps state crashes in a superstep drawn from
// [3, S], after its first cut is committed, so its resume step is
// checked too. S comes from the cost golden, so every plan is drawn
// before any application runs and a -run filter runs one application.
func TestConformanceRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(inputSeed))
	for _, a := range All {
		first := 1
		if keepsState[a.Name] {
			first = 3
		}
		steps := goldenS(t, a.Name, a.Sizes[0], conformanceP)
		plan := transport.FaultPlan{Seed: rng.Int63(), CrashRank: rng.Intn(conformanceP), CrashStep: first + rng.Intn(steps-first+1)}
		t.Run(a.Name, func(t *testing.T) {
			inst, want, _ := simRun(t, a)
			got, st, err := inst.Run(core.Config{
				P:           conformanceP,
				Transport:   transport.NewChaosTransport(transport.TCPTransport{}, plan),
				SyncTimeout: 30 * time.Second,
				Checkpoint:  &core.CheckpointConfig{Dir: t.TempDir(), Backoff: time.Millisecond},
			})
			if err != nil {
				t.Fatalf("did not recover [plan %s]: %v", plan, err)
			}
			if st.Ckpt == nil || st.Ckpt.Attempts != 2 {
				t.Errorf("recovery stats %+v, want exactly 2 attempts [plan %s]", st.Ckpt, plan)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("recovered result differs from the fault-free one [plan %s]", plan)
			}
			if keepsState[a.Name] && st.Ckpt != nil && st.Ckpt.ResumeStep <= 0 {
				t.Errorf("crashed past the first cut but resumed at superstep %d [plan %s]", st.Ckpt.ResumeStep, plan)
			}
		})
	}
}

// goldenS returns the superstep count testdata/cost_golden.txt pins for
// one application, size and p.
func goldenS(t *testing.T, name string, size, p int) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "cost_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var app string
		var sz, pp, s, h int
		if n, _ := fmt.Sscan(line, &app, &sz, &pp, &s, &h); n == 5 && app == name && sz == size && pp == p {
			return s
		}
	}
	t.Fatalf("cost golden has no row for %s at size %d, p=%d", name, size, p)
	return 0
}

// TestCostGolden pins every application's communication cost — S and H
// at the smallest size for p in {1, 2, 4} — so that bloat in any of
// them fails a test. (H, S) are deterministic properties of the
// program; a deliberate schedule change is refreshed with `make golden`
// and reviewed as a diff.
func TestCostGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-10s %6s %2s %6s %8s\n", "# app", "size", "p", "S", "H")
	for _, a := range All {
		inst := a.New(a.Sizes[0])
		for _, p := range []int{1, 2, 4} {
			if a.CheckP(p) != nil {
				continue
			}
			_, st, err := inst.Run(core.Config{P: p, Transport: transport.SimTransport{}})
			if err != nil {
				t.Fatalf("%s p=%d: %v", a.Name, p, err)
			}
			fmt.Fprintf(&buf, "%-10s %6d %2d %6d %8d\n", a.Name, a.Sizes[0], p, st.S(), st.H())
		}
	}
	golden := filepath.Join("testdata", "cost_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("communication cost changed (run `make golden` if deliberate):\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}
