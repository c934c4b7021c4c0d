package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// procLogEnv names the file every re-executed copy of this test binary
// appends one line to before it becomes bsprun's main — the census of
// OS processes a bsprun invocation started, itself included.
const procLogEnv = "BSPRUN_TEST_PROCLOG"

func TestMain(m *testing.M) {
	if log := os.Getenv(procLogEnv); log != "" {
		f, err := os.OpenFile(log, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, os.Getpid())
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "proc log:", err)
			os.Exit(99)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadProgramFailsBeforeAnyProcess: an -app the registry does not
// know, or a -p the application cannot run on, is rejected by the one
// process the user started — no coordinator, no rank children, one
// line on stderr.
func TestBadProgramFailsBeforeAnyProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster", "-app", "typo", "-p", "4"}, `unknown app "typo"`},
		{[]string{"-cluster", "-app", "mm", "-p", "3"}, "not a perfect square"},
		{[]string{"-cluster", "-app", "nbody", "-p", "6", "-checkpoint-dir", t.TempDir()}, "power-of-two"},
		{[]string{"-cluster", "-app", "psort", "-p", "0"}, "p must be >= 1"},
		{[]string{"-app", "typo", "-transport", "sim"}, `unknown app "typo"`},
		{[]string{"-app", "mm", "-p", "2", "-transport", "sim"}, "not a perfect square"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			log := filepath.Join(t.TempDir(), "procs")
			cmd := exec.Command(exe, tc.args...)
			cmd.Env = append(os.Environ(), procLogEnv+"="+log)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want code 1; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) || strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("stderr = %q, want one line containing %q", stderr.String(), tc.want)
			}
			procs, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(procs, []byte("\n")); n != 1 {
				t.Errorf("%d processes ran, want only the launcher itself", n)
			}
		})
	}
}

// TestCleanClusterRunLeavesNoPostmortemDir: a -cluster run arms a
// per-PID postmortem directory under $TMPDIR by default; a run that
// leaves no dumps must not leave the empty directory behind either.
func TestCleanClusterRunLeavesNoPostmortemDir(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cmd := exec.Command(exe, "-cluster", "-app", "psort", "-size", "1000", "-p", "2")
	cmd.Env = append(os.Environ(), procLogEnv+"="+filepath.Join(t.TempDir(), "procs"), "TMPDIR="+tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clean cluster run: %v\n%s", err, out)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "bsprun-postmortem-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("a clean run left %v behind", left)
	}
}
