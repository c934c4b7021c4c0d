package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/transport"
)

// top is a terminal viewer for a live BSP cluster run. It polls the
// coordinator's /status endpoint (bsprun -status-addr) and renders one
// row per rank — state, last superstep, a progress bar against the
// front-runner, packet and wait counters — plus the online (g, L)
// calibration line, refreshing in place like top(1).
//
// The source is a URL (http://host:port; the /status path is appended
// if missing) or a status JSON file on disk (bsprun -status-dump), so
// a finished run is inspected the same way as a live one; a file
// renders once. With -once, -min-step N is a CI gate: exit 1 if a rank
// that has not left is still short of superstep N. The raw document
// needs no flag: it is the file itself, or what `curl <addr>/status`
// prints.
func top(args []string, stdout, stderr io.Writer) int {
	fs := flags("top", "[-interval 1s] [-once] [-min-step N] <status-url-or-file>", stderr)
	interval := fs.Duration("interval", time.Second, "refresh interval in live mode")
	once := fs.Bool("once", false, "render a single frame and exit")
	minStep := fs.Int64("min-step", -1, "with -once or a file: exit 1 unless every rank that has not left is at superstep >= this")
	src, ok := source(fs, args)
	if !ok {
		return 2
	}
	live := isURL(src)
	for {
		doc, err := loadStatus(src)
		if err != nil {
			complain(stderr, "top", err)
			return 1
		}
		if !*once && live {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(stdout, doc, src)
		if *once || !live {
			if bad := belowStep(doc, *minStep); *minStep >= 0 && len(bad) > 0 {
				fmt.Fprintf(stderr, "bspobs top: ranks %v below step %d\n", bad, *minStep)
				return 1
			}
			return 0
		}
		time.Sleep(*interval)
	}
}

// belowStep returns the ranks whose last superstep is under min.
// Ranks that left cleanly are exempt — a finished rank parked at its
// final step is not a laggard.
func belowStep(doc transport.StatusDoc, min int64) []int {
	var bad []int
	for _, r := range doc.Ranks {
		if r.LastStep < min && r.State != "left" {
			bad = append(bad, r.Rank)
		}
	}
	sort.Ints(bad)
	return bad
}

// render draws one frame: a job header, the calibration line, and one
// row per rank. Rank rows start with "r<rank> " at column 0 so they
// are grep-able from CI transcripts.
func render(w io.Writer, doc transport.StatusDoc, src string) {
	fmt.Fprintf(w, "bspobs top — job %q  p=%d  epoch=%d  (%s)\n", doc.Job, doc.P, doc.Epoch, src)
	c := doc.Calib
	if c.Fit {
		fmt.Fprintf(w, "calib: g=%.3f µs/pkt  L=%.1f µs  window=%d  eq1 live ratio=%.3f\n",
			c.GUsPerPkt, c.LUs, c.Window, c.LiveRatio)
	} else if c.Window > 0 {
		fmt.Fprintf(w, "calib: (degenerate fit, window=%d)  L~%.1f µs  eq1 live ratio=%.3f\n",
			c.Window, c.LUs, c.LiveRatio)
	} else {
		fmt.Fprintln(w, "calib: (no observations yet)")
	}
	var maxStep int64 = -1
	for _, r := range doc.Ranks {
		if r.LastStep > maxStep {
			maxStep = r.LastStep
		}
	}
	fmt.Fprintf(w, "%-4s %-8s %9s %-22s %10s %10s %12s %9s %8s %s\n",
		"rank", "state", "step", "progress", "sent pkts", "recv pkts", "bytes", "wait", "rtt", "metrics")
	for _, r := range doc.Ranks {
		bar := progressBar(r.LastStep, maxStep, 20)
		wait := time.Duration(r.WaitNs).Round(time.Millisecond)
		rtt := "-"
		if r.RTTAvgNs > 0 {
			rtt = time.Duration(r.RTTAvgNs).Round(10 * time.Microsecond).String()
		}
		extra := r.MetricsAddr
		if r.ConvictReason != "" {
			extra = strings.TrimSpace(extra + " [" + r.ConvictReason + "]")
		}
		fmt.Fprintf(w, "r%-3d %-8s %9d %-22s %10d %10d %12d %9s %8s %s\n",
			r.Rank, r.State, r.LastStep, bar, r.SentPkts, r.RecvPkts, r.PairBytes, wait, rtt, extra)
	}
}

// progressBar renders rank progress against the front-runner.
func progressBar(step, max int64, width int) string {
	if max < 0 {
		return "[" + strings.Repeat(" ", width) + "]"
	}
	// steps are 0-based; +1 so the front-runner shows a full bar.
	fill := int((step + 1) * int64(width) / (max + 1))
	if fill < 0 {
		fill = 0
	}
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(" ", width-fill) + "]"
}
