package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/transport"
)

// run calls a subcommand in-process and returns its exit status and
// what it printed.
func run(cmd func([]string, io.Writer, io.Writer) int, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := cmd(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// allToAll sends one packet from every rank to every rank for steps
// supersteps.
func allToAll(steps int) func(*core.Proc) {
	return func(c *core.Proc) {
		var pkt core.Pkt
		pkt[0] = byte(c.ID())
		for s := 0; s < steps; s++ {
			for dst := 0; dst < c.P(); dst++ {
				c.SendPkt(dst, &pkt)
			}
			c.Sync()
			for {
				if _, ok := c.GetPkt(); !ok {
					break
				}
			}
		}
	}
}

// crashBundle leaves the gathered postmortem bundle of a p=4 chaos:shm
// run whose rank 1 crashes in its 3rd superstep (0-based superstep 2).
func crashBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	tr := transport.NewChaosTransport(transport.ShmTransport{}, transport.FaultPlan{Seed: 1, CrashRank: 1, CrashStep: 3})
	pm := &core.PostmortemConfig{Dir: dir, Job: "bspobs-post"}
	if _, err := core.Run(core.Config{P: 4, Transport: tr, Postmortem: pm}, allToAll(6)); err == nil {
		t.Fatal("crashed run returned nil error")
	}
	if _, err := trace.GatherBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

const crashLine = "injected crash: rank 1 at superstep 2"

// TestPost: a complete bundle is reported with its crash named and
// exits 0; a bundle short of a rank's dump (deleted or unreadable), or
// of its manifest, is still reported, its gap named on stderr, and
// exits 1.
func TestPost(t *testing.T) {
	dir := crashBundle(t)
	code, out, errs := run(post, dir)
	if code != 0 || errs != "" {
		t.Fatalf("post on a complete bundle: exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{"postmortem bundle: job bspobs-post  p=4  4 dump(s)", crashLine, "first-stalled rank: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	rank2 := filepath.Join("rank2", "dump-e0.json")
	for _, tc := range []struct {
		name, file, want string
		corrupt          bool
	}{
		{"rank dump deleted", rank2, "rank 2 left no dump", false},
		{"rank dump unreadable", rank2, rank2 + ": unexpected end of JSON input", true},
		{"manifest deleted", trace.ManifestName, "bundle was never gathered", false},
	} {
		dir := crashBundle(t)
		path := filepath.Join(dir, tc.file)
		var err error
		if tc.corrupt {
			err = os.WriteFile(path, []byte("{"), 0o644)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		code, out, errs := run(post, dir)
		if code != 1 || !strings.Contains(out, crashLine) || !strings.Contains(errs, tc.want) {
			t.Errorf("%s: exit %d, want 1 with the report on stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s",
				tc.name, code, tc.want, out, errs)
		}
	}

	if code, _, errs := run(post, t.TempDir()); code != 1 || !strings.Contains(errs, "no postmortem dumps") {
		t.Errorf("post on an empty dir: exit %d, stderr %q", code, errs)
	}
}

// statusFile writes a p=3 status document whose rank 2 is at
// superstep 0 in the given state, the others at superstep 4.
func statusFile(t *testing.T, lagger string) string {
	t.Helper()
	doc := transport.StatusDoc{Job: "bspobs-top", P: 3}
	for r, state := range []string{"live", "live", lagger} {
		row := transport.StatusRank{Rank: r, State: state, Seq: 9}
		row.LastStep = 4
		if r == 2 {
			row.LastStep = 0
		}
		doc.Ranks = append(doc.Ranks, row)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "status.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTop: a status file renders one "r<N> " row per rank, and
// -min-step fails on a lagging rank unless it has left. A live URL
// serving the same bytes renders the same rows.
func TestTop(t *testing.T) {
	rows := regexp.MustCompile(`(?m)^r[0-9]+ `)
	path := statusFile(t, "live")
	code, out, errs := run(top, "-once", path)
	if code != 0 || len(rows.FindAllString(out, -1)) != 3 {
		t.Fatalf("top -once on a status file: exit %d, stderr %q, want 3 rank rows:\n%s", code, errs, out)
	}
	if code, _, errs := run(top, "-once", "-min-step", "1", path); code != 1 || !strings.Contains(errs, "ranks [2] below step 1") {
		t.Errorf("-min-step 1 with rank 2 live at superstep 0: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := run(top, "-once", "-min-step", "1", statusFile(t, "left")); code != 0 {
		t.Errorf("-min-step 1 with rank 2 left at superstep 0: exit %d, stderr %q", code, errs)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" {
			http.NotFound(w, r)
			return
		}
		w.Write(raw)
	}))
	defer srv.Close()
	code, live, errs := run(top, "-once", srv.URL)
	if code != 0 || strings.Join(rows.FindAllString(live, -1), "") != strings.Join(rows.FindAllString(out, -1), "") {
		t.Errorf("top -once on a live URL: exit %d, stderr %q:\n%s", code, errs, live)
	}
}

// TestCheck: a traced shm run passes the pair audit; the same trace
// fails -require-crash, and -status cross-validates a document that
// matches the trace.
func TestCheck(t *testing.T) {
	rec := trace.New(4)
	if _, err := core.Run(core.Config{P: 4, Transport: transport.ShmTransport{}, Trace: rec}, allToAll(3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	code, out, errs := run(check, "-ranks", "4", "-check-pairs", path)
	if code != 0 || !strings.Contains(out, "4 ranks x 3 supersteps, 0 crash(es), 0 rollback(s), ") {
		t.Fatalf("check -check-pairs on a clean trace: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if code, _, errs := run(check, "-ranks", "4", "-require-crash", path); code != 1 || !strings.Contains(errs, "no chaos crash marker") {
		t.Errorf("check -require-crash on a clean trace: exit %d, stderr %q", code, errs)
	}

	// A status document whose ranks all ended at superstep 2 agrees
	// with the trace; one whose rank 3 stopped at 1 does not.
	for _, last3 := range []int64{2, 1} {
		doc := transport.StatusDoc{Job: "bspobs-check", P: 4}
		for r := 0; r < 4; r++ {
			row := transport.StatusRank{Rank: r, State: "left", Seq: 5}
			row.LastStep = 2
			if r == 3 {
				row.LastStep = last3
			}
			doc.Ranks = append(doc.Ranks, row)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		status := filepath.Join(t.TempDir(), "status.json")
		if err := os.WriteFile(status, b, 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, errs := run(check, "-ranks", "4", "-status", status, path)
		if last3 == 2 && code != 0 {
			t.Errorf("check -status with a matching document: exit %d, stderr %q", code, errs)
		}
		if last3 == 1 && (code != 1 || !strings.Contains(errs, "status: rank 3 last_step=1, trace timeline shows 2")) {
			t.Errorf("check -status with rank 3 behind the trace: exit %d, stderr %q", code, errs)
		}
	}
}

// TestUsage: a malformed command line exits 2 without reading input.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  func([]string, io.Writer, io.Writer) int
		args []string
	}{
		{"check without -ranks", check, []string{"trace.json"}},
		{"check without a trace", check, []string{"-ranks", "4"}},
		{"post with two dirs", post, []string{"a", "b"}},
		{"post with an unknown machine", post, []string{"-cost-machine", "Cray", "dir"}},
		{"top with an unknown flag", top, []string{"-json", "status.json"}},
	} {
		if code, _, _ := run(tc.cmd, tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}
