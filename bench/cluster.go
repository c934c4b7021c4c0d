package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// The cluster workload runs cmd/bsprun as a user would: the launcher
// spawns one OS process per rank. The span decorator cannot reach those
// processes, so the layer numbers are parsed from the command's output.

// runTimeout bounds one run; a run that exceeds it counts as failed.
const runTimeout = 60 * time.Second

// dirs says where the benchmark finds its module and keeps what it
// builds and writes.
type dirs struct {
	module string // the directory of bench/go.mod
	build  string // scratch inside the checkout
}

// buildBsprun compiles cmd/bsprun into the build directory and returns
// the binary's absolute path. With a warm build cache this is the
// toolchain's up-to-date check, which is what set-up pays on every
// invocation after the first.
func buildBsprun(d dirs) (string, error) {
	bin, err := filepath.Abs(filepath.Join(d.build, "bsprun"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/bsprun")
	cmd.Dir = d.module
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/bsprun: %w\n%s", err, out)
	}
	return bin, nil
}

type clusterRank struct {
	rank, s, pkts int
	wall, work    time.Duration
}

type clusterOutput struct {
	gangWall time.Duration // the launcher's "on cluster: wall": spawn → handshake → run → last exit
	exec     time.Duration // the whole command, timed from outside
	simH     int           // H of the launcher's own sim measurement
	ranks    []clusterRank
}

var (
	rankLine = regexp.MustCompile(`rank (\d+)/\d+ of \S+ \(epoch \d+\): wall (\S+), P=\d+ S=(\d+) W=\S+ H=\d+ totalwork=(\S+) pkts=(\d+)`)
	gangLine = regexp.MustCompile(`on cluster: wall (\S+) \(`)
	simLine  = regexp.MustCompile(`sim measurement: .*H = (\d+)`)
)

// runCluster launches one gang and parses its report. The command runs
// in its own process group so a timeout kills the ranks with the
// launcher.
func runCluster(bin, postmortem, app string, size, p int) (clusterOutput, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-cluster", "-app", app,
		"-size", strconv.Itoa(size), "-p", strconv.Itoa(p), "-postmortem-dir", postmortem)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	out := clusterOutput{exec: time.Since(t0)}
	if err != nil {
		return out, fmt.Errorf("bsprun -cluster: %w\n%s", err, stderr.Bytes())
	}
	return out, parseCluster(&out, stdout.Bytes())
}

func parseCluster(out *clusterOutput, stdout []byte) error {
	var err error
	dur := func(b []byte) time.Duration {
		d, e := time.ParseDuration(string(b))
		if e != nil && err == nil {
			err = e
		}
		return d
	}
	num := func(b []byte) int {
		n, e := strconv.Atoi(string(b))
		if e != nil && err == nil {
			err = e
		}
		return n
	}
	for _, m := range rankLine.FindAllSubmatch(stdout, -1) {
		out.ranks = append(out.ranks, clusterRank{rank: num(m[1]), wall: dur(m[2]), s: num(m[3]), work: dur(m[4]), pkts: num(m[5])})
	}
	gang, sim := gangLine.FindSubmatch(stdout), simLine.FindSubmatch(stdout)
	if gang == nil || sim == nil || len(out.ranks) == 0 {
		return fmt.Errorf("bsprun -cluster: report not recognised:\n%s", stdout)
	}
	out.gangWall, out.simH = dur(gang[1]), num(sim[1])
	return err
}

// clusterLayers are one launch's per-layer numbers, in nanoseconds.
type clusterLayers struct {
	launch   float64 // gang wall − slowest rank's wall: spawn and reaping
	rankSync float64 // mean over ranks of rank wall − rank W: handshake, exchange, barrier
	compute  float64 // mean over ranks of rank W
	exec     float64
}

func (o clusterOutput) layers() clusterLayers {
	var l clusterLayers
	var slowest time.Duration
	for _, r := range o.ranks {
		slowest = max(slowest, r.wall)
		l.rankSync += float64(r.wall - r.work)
		l.compute += float64(r.work)
	}
	l.rankSync /= float64(len(o.ranks))
	l.compute /= float64(len(o.ranks))
	l.launch = float64(o.gangWall - slowest)
	l.exec = float64(o.exec)
	return l
}
