package trace

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMetricsIsFoldOfEvents: metrics = fold(events), literally. A
// recorder is driven through every Buf and Recorder method (fewer than
// DefaultRingSize events per rank, so the rings still hold the whole
// stream); folding the ring snapshots and the machine events into a
// fresh Metrics must reproduce the live Snapshot exactly. A counter
// written anywhere but observe breaks the equality.
func TestMetricsIsFoldOfEvents(t *testing.T) {
	const p = 3
	r := New(p)
	for rank := 0; rank < p; rank++ {
		b := r.Rank(rank)
		b.SetStepBase(1)
		for s := 0; s < 4; s++ {
			at := int64(1000*s + 10*rank)
			b.Compute(s, at, at+300+int64(rank), 7)
			b.Exchange(s, at+320, at+400)
			b.Pair(s, (rank+1)%p, at+330, 64<<rank, 2, 4)
			b.Pair(s, p+5, at+340, 16, 1, 1) // a destination outside the machine
			b.SyncSpan(s, at+310, at+900, 4+rank, 5, 1)
			b.Heartbeat(s+1, rank)
			b.HeartbeatRTT(s+1, int64(1500*(s+1)))
		}
		b.CkptSave(2, 5000, 5100, 4096+rank)
		b.CkptRestore(2, 6000, 6050)
		b.Fault(3, FaultDelay, 6100, 250)
		b.Fault(3, FaultSuspect, 6200, int64((rank+1)%p))
		b.HeartbeatMiss()
		b.WarmRestart((rank+1)%p, 1)
	}
	r.Rollback(2, 2)
	r.Rollback(3, 2)

	fold := newMetrics(p)
	for rank := 0; rank < p; rank++ {
		events, total := r.Rank(rank).RingSnapshot()
		if total >= DefaultRingSize || int(total) != len(events) {
			t.Fatalf("rank %d recorded %d events and the ring kept %d: the fold needs the whole stream", rank, total, len(events))
		}
		for _, e := range events {
			fold.observe(e)
		}
	}
	for _, e := range r.machine {
		fold.observe(e)
	}
	got, want := fold.Snapshot(), r.Metrics().Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold of the recorded events differs from the live metrics:\nfold %+v\nlive %+v", got, want)
	}
	// And the stream reached every member-side field (the coordinator's
	// four are not a recorder's to write).
	for rank, row := range want.Ranks {
		for i, v := range fieldsOf(&row) {
			if f := Fields[i]; *v == 0 && f.Name != "last_heartbeat_epoch" && !strings.HasPrefix(f.Feed, "coordinator") {
				t.Errorf("rank %d: no event of the test fed %q", rank, f.Name)
			}
		}
	}
}

// TestRowFieldTable: the struct, fieldsOf and Fields are one list. By
// reflection, field i of Row is an int64 whose address is fieldsOf's
// i-th pointer and whose JSON tag is Fields[i].Name; JSON and
// Prometheus names are unique. A field added without its pointer or
// table entry fails here.
func TestRowFieldTable(t *testing.T) {
	var row Row
	v := reflect.ValueOf(&row).Elem()
	if v.NumField() != NumFields {
		t.Fatalf("Row has %d fields, NumFields = %d", v.NumField(), NumFields)
	}
	ptrs := fieldsOf(&row)
	seen := map[string]bool{}
	for i := 0; i < NumFields; i++ {
		sf, f := v.Type().Field(i), Fields[i]
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("Row.%s is %v, want int64", sf.Name, sf.Type)
		}
		if v.Field(i).Addr().Interface().(*int64) != ptrs[i] {
			t.Errorf("fieldsOf()[%d] does not address Row.%s", i, sf.Name)
		}
		if tag := sf.Tag.Get("json"); tag != f.Name || tag == "" {
			t.Errorf("Row.%s is tagged %q, Fields[%d].Name = %q", sf.Name, tag, i, f.Name)
		}
		if f.Prom == "" || f.Help == "" || f.Unit == "" || f.Feed == "" {
			t.Errorf("Fields[%d] (%s) is incomplete: %+v", i, sf.Name, f)
		}
		if (f.Type == "counter") != strings.HasSuffix(f.Prom, "_total") || (f.Type != "counter" && f.Type != "gauge") {
			t.Errorf("%s is a %q: a counter family ends in _total, a gauge does not, and there is no third type", f.Prom, f.Type)
		}
		for _, name := range []string{"json:" + f.Name, "prom:" + f.Prom} {
			if seen[name] {
				t.Errorf("duplicate name %s", name)
			}
			seen[name] = true
		}
	}
}

// TestDesignCounterTable: DESIGN §8's counter table is Fields, printed.
func TestDesignCounterTable(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("| JSON key | Prometheus family | kind | unit | fed by |\n|---|---|---|---|---|\n")
	for _, f := range Fields {
		fmt.Fprintf(&sb, "| `%s` | `%s` | %s | %s | %s |\n", f.Name, f.Prom, f.Type, f.Unit, f.Feed)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), sb.String()) {
		t.Fatalf("DESIGN.md §8 does not carry the current field table; paste:\n%s", sb.String())
	}
}
