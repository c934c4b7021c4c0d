package main

// Profiling capture for one bsprun invocation: CPU profile, heap
// profile and runtime/trace files.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// profCapture owns the profiling outputs of one run.
type profCapture struct {
	cpuPath, memPath, rtPath string
	cpuFile, rtFile          *os.File
}

// startCaptures opens the requested profile outputs and starts the CPU
// profiler and runtime tracer. Any failure stops whatever already
// started before the error returns.
func startCaptures(cpuPath, memPath, rtPath string) (*profCapture, error) {
	pc := &profCapture{cpuPath: cpuPath, memPath: memPath, rtPath: rtPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		pc.cpuFile = f
	}
	if rtPath != "" {
		f, err := os.Create(rtPath)
		if err != nil {
			pc.stop()
			return nil, fmt.Errorf("runtime-trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			pc.stop()
			return nil, fmt.Errorf("runtime-trace: %w", err)
		}
		pc.rtFile = f
	}
	return pc, nil
}

// stop ends the CPU profile and runtime trace and flushes their files.
// It runs on success and failure alike — a crashed run still leaves
// its profiles behind — and is idempotent.
func (pc *profCapture) stop() {
	if pc.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := pc.cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bsprun: cpuprofile:", err)
		} else {
			fmt.Printf("CPU profile written to %s (per rank: `go tool pprof -tagfocus 'bsp_rank=^0$' %s`)\n", pc.cpuPath, pc.cpuPath)
		}
		pc.cpuFile = nil
	}
	if pc.rtFile != nil {
		rtrace.Stop()
		if err := pc.rtFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bsprun: runtime-trace:", err)
		} else {
			fmt.Printf("runtime trace written to %s (inspect with `go tool trace %s`)\n", pc.rtPath, pc.rtPath)
		}
		pc.rtFile = nil
	}
}

// writeMem captures the end-of-run heap profile, after a GC so the
// profile shows live memory rather than garbage awaiting collection.
func (pc *profCapture) writeMem() {
	if pc.memPath == "" {
		return
	}
	f, err := os.Create(pc.memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsprun: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "bsprun: memprofile:", err)
		return
	}
	fmt.Printf("heap profile written to %s\n", pc.memPath)
}
