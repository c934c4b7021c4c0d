package ocean

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCostGolden pins the program parameters of Equation 1 that ocean's
// algorithm fixes — S, H and V-cycles per solve are deterministic in
// (size, p), whatever the host — so a change to the communication
// schedule shows up as a reviewed diff of testdata/cost_golden.txt
// (regenerate with -update, or `make golden`) and not as a benchmark
// surprise. It also holds every superstep to the halo lower bound's
// shape: a process sends and receives at most two ghost rows of one
// field (2·m packets on the finest level, fewer below), and in the
// agglomeration supersteps rank 0 receives at most one a×a level and
// sends each of its rows to the owners of the four fine rows whose
// interpolation reads it (4·a²).
func TestCostGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# ocean, one timestep on sim: S and V-cycles depend on size alone, H on (size, p)")
	fmt.Fprintln(&buf, "# size  p    S      H  cycles")
	for _, size := range []int{18, 34, 66, 130, 258} {
		cfg := Config{Size: size, Steps: 1}
		_, cycles, err := Sequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := size - 2
		a := m / 2 // the agglomerated level: the first one below the finest within aggM
		for a > aggM {
			a /= 2
		}
		hBound := max(2*m, 4*a*a)
		s1 := 0
		for _, p := range []int{1, 2, 3, 4, 8, 16} {
			_, st, err := Parallel(core.Config{P: p, Transport: transport.SimTransport{}}, cfg)
			if err != nil {
				t.Fatalf("size %d p=%d: %v", size, p, err)
			}
			if p == 1 {
				s1 = st.S()
			} else if st.S() != s1 {
				t.Errorf("size %d: S = %d at p=%d but %d at p=1", size, st.S(), p, s1)
			}
			for i, step := range st.Steps {
				if step.MaxH > hBound {
					t.Errorf("size %d p=%d superstep %d: h = %d packets, above the halo bound %d", size, p, i, step.MaxH, hBound)
				}
			}
			if size == 130 && (st.S() > 120 || st.H() > 12000) {
				t.Errorf("size 130 p=%d: S = %d, H = %d; the budget is S ≤ 120, H ≤ 12000", p, st.S(), st.H())
			}
			fmt.Fprintf(&buf, "%6d %2d %4d %6d  %6d\n", size, p, st.S(), st.H(), cycles[0])
		}
	}
	const path = "testdata/cost_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ocean's (S, H, V-cycles) diverged from golden (run with -update after a deliberate schedule change)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
