package trace

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestWritePrometheusGolden pins the Prometheus text exposition the
// metrics endpoint serves for the recovered-run fixture: stable metric
// ordering, HELP/TYPE lines for every family, per-rank and per-pair
// label sets. Scrapers and dashboards key on these names, so any
// divergence must be deliberate — regenerate with -update after a
// schema change (shares the flag with the Chrome-export golden).
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().Metrics().Snapshot().WritePrometheus(&buf)
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Prometheus exposition diverged from golden (run with -update after deliberate schema changes)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestMetricsHandlerGolden: the HTTP handler serves exactly the golden
// body with the Prometheus text content type.
func TestMetricsHandlerGolden(t *testing.T) {
	rr := httptest.NewRecorder()
	goldenRecorder().Metrics().Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_golden.txt"))
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Fatalf("handler body diverged from golden:\n%s", rr.Body.Bytes())
	}
}
