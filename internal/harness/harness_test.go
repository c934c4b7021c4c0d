package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/transport"
)

func TestPaperData(t *testing.T) {
	r, ok := PaperRowFor("ocean", 514, 16)
	if !ok || r.H != 69946 || r.S != 312 || r.SGISpdp != 17.0 {
		t.Fatalf("ocean 514@16 = %+v", r)
	}
	if _, ok := PaperRowFor("ocean", 999, 16); ok {
		t.Fatal("nonexistent configuration found")
	}
	if got := PaperSizes("mm"); len(got) != 4 || got[3] != 576 {
		t.Fatalf("PaperSizes(mm) = %v", got)
	}
	// Every app contributes rows and NP=1 rows exist for each size.
	for _, app := range Apps() {
		for _, size := range PaperSizes(app) {
			if _, ok := PaperRowFor(app, size, 1); !ok {
				t.Errorf("%s size %d has no NP=1 paper row", app, size)
			}
		}
	}
}

func TestSizesAndProcs(t *testing.T) {
	for _, app := range Apps() {
		if len(Sizes(app, false)) < 3 {
			t.Errorf("%s: too few scaled sizes", app)
		}
		full := Sizes(app, true)
		paper := PaperSizes(app)
		if len(full) == 0 || full[0] != paper[0] {
			t.Errorf("%s: full sizes %v do not start with paper sizes %v", app, full, paper)
		}
		if len(Procs(app)) < 4 {
			t.Errorf("%s: too few processor counts", app)
		}
	}
	// The registry-derived views reproduce the paper's configurations.
	for _, tc := range []struct {
		what      string
		got, want any
	}{
		{"Apps()", Apps(), []string{"ocean", "nbody", "mst", "sp", "msp", "mm"}},
		{"Procs(mm)", Procs("mm"), []int{1, 4, 9, 16}},
		{"Procs(nbody)", Procs("nbody"), []int{1, 2, 4, 8, 16}},
		{"Procs(ocean)", Procs("ocean"), []int{1, 2, 4, 8, 16}},
		{"Sizes(nbody, full)", Sizes("nbody", true), []int{1000, 4000, 16000, 64000}},
		{"Sizes(psort, full)", Sizes("psort", true), Sizes("psort", false)},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.what, tc.got, tc.want)
		}
	}
}

func TestCollectSmall(t *testing.T) {
	for _, app := range Apps() {
		sizes := Sizes(app, false)[:1]
		rows, err := Collect(app, sizes, []int{1, 4})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows", app, len(rows))
		}
		for _, r := range rows {
			if r.S <= 0 && app != "mm" {
				t.Errorf("%s p=%d: S = %d", app, r.NP, r.S)
			}
			if r.W <= 0 || r.TotalWork < r.W {
				t.Errorf("%s p=%d: W=%v TotalWork=%v", app, r.NP, r.W, r.TotalWork)
			}
			if r.NP == 4 && r.H == 0 && app != "psort" {
				t.Errorf("%s p=4: H = 0, parallel run should communicate", app)
			}
		}
	}
}

func TestCollectPsort(t *testing.T) {
	rows, err := Collect("psort", []int{2000}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.S != 4 {
			t.Errorf("psort p=%d: S = %d, want 4", r.NP, r.S)
		}
	}
}

func TestRowPredictions(t *testing.T) {
	rows, err := Collect("mm", []int{48}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	r4 := rows[1]
	base := baselineFor(rows, r4)
	if base.NP != 1 {
		t.Fatal("baseline lookup failed")
	}
	for _, m := range cost.PaperMachines() {
		if r4.Predict(m) < r4.PredictComm(m) {
			t.Errorf("%s: total prediction below communication component", m.Name)
		}
		if r4.Speedup(m, base) <= 0 {
			t.Errorf("%s: non-positive speed-up", m.Name)
		}
	}
	// Cost-model sanity: the high-latency PC profile must predict a
	// slower run than the SGI profile for the same program.
	if r4.Predict(cost.PC) <= r4.Predict(cost.SGI) {
		t.Error("PC profile should be slower than SGI on a communication-heavy small run")
	}
}

func TestTablePrinters(t *testing.T) {
	rows, err := Collect("mm", []int{48, 96}, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTableC(&buf, "mm", rows)
	out := buf.String()
	for _, want := range []string{"SGI", "Cenju", "PC", "paperH", "96"} {
		if !strings.Contains(out, want) {
			t.Errorf("table C missing %q:\n%s", want, out)
		}
	}
	byApp := map[string][]Row{"mm": rows}
	buf.Reset()
	PrintFig31(&buf, byApp)
	if !strings.Contains(buf.String(), "mm") {
		t.Error("Fig 3.1 missing mm row")
	}
	buf.Reset()
	PrintFig32(&buf, byApp)
	if !strings.Contains(buf.String(), "mm") {
		t.Error("Fig 3.2 missing mm row")
	}
	oceanRows, err := Collect("ocean", []int{18}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintFig11(&buf, oceanRows, 18)
	if !strings.Contains(buf.String(), "Cenju comm") {
		t.Error("Fig 1.1 header missing")
	}
}

func TestMeasureParams(t *testing.T) {
	pr, err := MeasureParams(transport.ShmTransport{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.L <= 0 {
		t.Errorf("L = %g, want > 0", pr.L)
	}
	if pr.G < 0 {
		t.Errorf("g = %g, want >= 0", pr.G)
	}
	measured, err := MeasureAll([]string{"shm"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(measured["shm"]) != 2 {
		t.Fatalf("MeasureAll rows: %v", measured)
	}
	if one := measured["shm"][0].Params; one.G != 0 || one.L <= 0 {
		t.Errorf("p = 1 moves no packet, want g = 0 and L > 0: %+v", one)
	}
	var buf bytes.Buffer
	PrintFig21(&buf, measured)
	if !strings.Contains(buf.String(), "paper") {
		t.Error("Fig 2.1 missing paper block")
	}
}

func TestCollectRejectsUnknownApp(t *testing.T) {
	if _, err := Collect("bogus", []int{1}, []int{1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}
