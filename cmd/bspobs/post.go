package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/trace"
)

// post validates a crash postmortem bundle — the per-rank
// flight-recorder dumps a failed run leaves behind (bsprun
// -postmortem-dir, or core.Config.Postmortem directly) — with
// trace.CheckBundle, and prints a root-cause report without needing
// the run to have been traced.
//
// The report merges every rank's ring dump onto one timeline (the same
// shard machinery the -cluster trace merge uses) and answers the
// questions a dead run raises:
//
//   - what failed: the injected or observed crash (rank and superstep),
//     and every dump's recorded reason
//   - where the machine was: last completed superstep per rank, and the
//     first-stalled rank — the earliest rank to stop making progress,
//     the usual root-cause suspect
//   - was the control plane alive: per-rank heartbeat counts, last
//     sequence numbers, the largest inter-beat gap, and echo RTTs
//   - what the cost model says: the Eq-1 per-superstep residual table
//     over the supersteps the ring still holds, so a run that died of
//     slowness (stall, not crash) shows its divergence
//
// The report is printed whenever at least one dump could be read, so
// an incomplete bundle — a rank that left no dump, or a launcher that
// died before writing the manifest — is still analyzed. Every bundle
// problem is then printed on stderr, and any makes the exit status 1.
func post(args []string, stdout, stderr io.Writer) int {
	fs := flags("post", "[-cost-machine SGI] <bundle-dir>", stderr)
	costMachine := fs.String("cost-machine", "SGI", "machine profile for the Eq-1 residual table: SGI|Cenju|PC")
	dir, ok := source(fs, args)
	if !ok {
		return 2
	}
	machine, err := cost.MachineByName(*costMachine)
	if err != nil {
		complain(stderr, "post", err)
		return 2
	}
	dumps, err := trace.CheckBundle(dir)
	if len(dumps) > 0 {
		report(stdout, dumps, machine)
	}
	if complain(stderr, "post", err) > 0 {
		return 1
	}
	return 0
}

// rankView is one dump's digest: progress, heartbeats, ring health.
type rankView struct {
	d trace.Dump
	// lastStep is the last superstep whose barrier this rank completed
	// (-1: none), lastSyncEnd its end time on the merged axis.
	lastStep    int
	lastSyncEnd int64
	// Heartbeat liveness out of the ring's KindHeartbeat events.
	beats          int
	lastSeq        int64
	maxGap         time.Duration
	rttN           int64
	rttMin, rttMax time.Duration
	rttSum         time.Duration
}

func digest(d trace.Dump) rankView {
	v := rankView{d: d, lastStep: -1, lastSeq: -1}
	var prevBeat int64
	for _, e := range d.Events {
		switch e.Kind {
		case trace.KindSync:
			if int(e.Step) >= v.lastStep {
				v.lastStep = int(e.Step)
				if e.End > v.lastSyncEnd {
					v.lastSyncEnd = e.End
				}
			}
		case trace.KindHeartbeat:
			if e.C > 0 {
				// An RTT observation (the coordinator's echo came back).
				rtt := time.Duration(e.C)
				v.rttN++
				v.rttSum += rtt
				if v.rttMin == 0 || rtt < v.rttMin {
					v.rttMin = rtt
				}
				if rtt > v.rttMax {
					v.rttMax = rtt
				}
				continue
			}
			v.beats++
			if e.A > v.lastSeq {
				v.lastSeq = e.A
			}
			if prevBeat != 0 {
				if gap := time.Duration(e.Start - prevBeat); gap > v.maxGap {
					v.maxGap = gap
				}
			}
			prevBeat = e.Start
		}
	}
	return v
}

// report writes the root-cause report of a bundle's dumps (at least
// one).
func report(w io.Writer, dumps []trace.Dump, machine cost.Machine) {
	p := dumps[0].P
	fmt.Fprintf(w, "postmortem bundle: job %s  p=%d  %d dump(s)\n", dumps[0].Job, p, len(dumps))

	views := make([]rankView, len(dumps))
	beating := false
	for i, d := range dumps {
		views[i] = digest(d)
		beating = beating || views[i].beats > 0 || views[i].rttN > 0
	}

	// What failed: the fault events the rings retained. An injected
	// chaos crash is the classic root cause; name it on one line the CI
	// smoke can grep.
	var faults []trace.Event
	for _, d := range dumps {
		for _, e := range d.Events {
			if e.Kind == trace.KindFault {
				faults = append(faults, e)
			}
		}
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i].Step < faults[j].Step })
	for _, f := range faults {
		if code := trace.FaultCode(f.A); code == trace.FaultCrash {
			fmt.Fprintf(w, "injected crash: rank %d at superstep %d\n", f.Rank, f.Step)
		} else {
			fmt.Fprintf(w, "injected fault (%s): rank %d at superstep %d\n", code, f.Rank, f.Step)
		}
	}
	if len(faults) == 0 {
		fmt.Fprintln(w, "no injected faults in the rings (external failure or ring overwritten)")
	}

	// Where the machine was: per-rank progress and the dump reasons.
	fmt.Fprintln(w, "\nper-rank state at death:")
	fmt.Fprintf(w, "  %-5s %-6s %-10s %-18s %s\n", "rank", "epoch", "last sync", "ring", "reason")
	for _, v := range views {
		ring := fmt.Sprintf("%d/%d", len(v.d.Events), v.d.RingTotal)
		if v.d.RingDropped > 0 {
			ring += fmt.Sprintf(" (-%d old)", v.d.RingDropped)
		}
		last := "none"
		if v.lastStep >= 0 {
			last = fmt.Sprintf("%d", v.lastStep)
		}
		fmt.Fprintf(w, "  %-5d %-6d %-10s %-18s %s\n", v.d.Rank, v.d.Epoch, last, ring, v.d.Reason)
	}

	// The first-stalled rank: the minimum last-completed superstep,
	// ties broken by the earliest barrier end — the rank that stopped
	// making progress first is where to look.
	first := views[0]
	for _, v := range views[1:] {
		if v.lastStep < first.lastStep ||
			(v.lastStep == first.lastStep && v.lastSyncEnd < first.lastSyncEnd) {
			first = v
		}
	}
	fmt.Fprintf(w, "first-stalled rank: %d (stopped after superstep %d)\n", first.d.Rank, first.lastStep)

	// Control-plane liveness, shown only when a rank heard its
	// heartbeats: none at all just means an in-process run.
	if beating {
		fmt.Fprintln(w, "\nheartbeat timeline:")
		fmt.Fprintf(w, "  %-5s %-7s %-9s %-10s %s\n", "rank", "beats", "last seq", "max gap", "echo rtt (min/avg/max)")
		for _, v := range views {
			rtt := "-"
			if v.rttN > 0 {
				rtt = fmt.Sprintf("%v/%v/%v", v.rttMin.Round(time.Microsecond),
					(v.rttSum / time.Duration(v.rttN)).Round(time.Microsecond), v.rttMax.Round(time.Microsecond))
			}
			seq := "-"
			if v.lastSeq >= 0 {
				seq = fmt.Sprintf("%d", v.lastSeq)
			}
			fmt.Fprintf(w, "  %-5d %-7d %-9s %-10v %s\n", v.d.Rank, v.beats, seq, v.maxGap.Round(time.Millisecond), rtt)
		}
	}

	// The Eq-1 residual at death: merge the dumps onto one timeline via
	// the shard machinery and run the standard residual table over
	// whatever complete supersteps the rings still hold. A machine that
	// died of slowness shows its divergence here.
	shards := make([]trace.Shard, len(dumps))
	for i, d := range dumps {
		shards[i] = d.Shard
	}
	rec, err := trace.MergeShards(shards)
	if err != nil {
		fmt.Fprintf(w, "\ncost report unavailable: %v\n", err)
		return
	}
	fmt.Fprintln(w)
	core.WriteResidualReport(w, core.StatsFromTrace(rec), machine.Name, machine.Params(p), 3)
}
