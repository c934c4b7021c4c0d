// Command bspparams measures this host's BSP machine parameters (g, L)
// for each transport and processor count — the Figure 2.1 analogue.
// Each row is harness.MeasureParams: one sweep of one-packet and
// total-exchange supersteps, each timed on its own and fitted by
// cost.Fit, the robust line fit the live telemetry window uses too.
// On a single-CPU host all BSP processes share one core, so L reflects
// scheduling latency rather than network latency; the paper's (g, L)
// profiles embedded in internal/cost drive the reproduced predictions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	transports := flag.String("transports", "shm,xchg,tcp", "transports to measure")
	procList := flag.String("p", "1,2,4,8,16", "processor counts")
	flag.Parse()
	var procs []int
	for _, s := range strings.Split(*procList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bspparams: bad -p %q: %v\n", s, err)
			os.Exit(2)
		}
		procs = append(procs, p)
	}
	measured, err := harness.MeasureAll(strings.Split(*transports, ","), procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bspparams: %v\n", err)
		os.Exit(1)
	}
	harness.PrintFig21(os.Stdout, measured)
}
