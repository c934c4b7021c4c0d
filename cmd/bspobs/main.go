// Command bspobs reads what a bsprun run leaves behind, or serves
// while it runs:
//
//	bspobs check -ranks N [-require-crash] [-require-rollback] [-check-pairs] [-status src] <trace.json>
//	bspobs post [-cost-machine SGI] <bundle-dir>
//	bspobs top [-interval 1s] [-once] [-min-step N] <status-url-or-file>
//
// check audits a Chrome trace (bsprun -trace), post validates a crash
// postmortem bundle (bsprun -postmortem-dir) and reports its root
// cause, and top renders the coordinator's /status document (bsprun
// -status-addr, or the -status-dump file). Exit status: 0 ok, 1 a
// violation or unreadable input, 2 a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/transport"
)

func main() {
	cmds := map[string]func(args []string, stdout, stderr io.Writer) int{
		"check": check, "post": post, "top": top,
	}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: bspobs check|post|top [flags] <source>")
		os.Exit(2)
	}
	os.Exit(cmds[os.Args[1]](os.Args[2:], os.Stdout, os.Stderr))
}

// flags returns a subcommand's flag set. Its usage line heads the
// flag defaults on a usage error.
func flags(name, usage string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bspobs %s %s\n", name, usage)
		fs.PrintDefaults()
	}
	return fs
}

// source parses args into fs and returns the one positional argument;
// false means a usage error, already reported.
func source(fs *flag.FlagSet, args []string) (string, bool) {
	if err := fs.Parse(args); err != nil {
		return "", false
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return "", false
	}
	return fs.Arg(0), true
}

// complain prints err one problem per line, each prefixed with the
// subcommand, and returns how many it held.
func complain(stderr io.Writer, name string, err error) int {
	if err == nil {
		return 0
	}
	lines := strings.Split(err.Error(), "\n")
	for _, l := range lines {
		fmt.Fprintf(stderr, "bspobs %s: %s\n", name, l)
	}
	return len(lines)
}

func isURL(src string) bool {
	return strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://")
}

// loadStatus reads a /status document from a coordinator URL or from
// a file (bsprun -status-dump). Both hold the same bytes.
func loadStatus(src string) (transport.StatusDoc, error) {
	var doc transport.StatusDoc
	read := os.ReadFile
	if isURL(src) {
		read = get
	}
	raw, err := read(src)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s is not a /status document: %w", src, err)
	}
	return doc, nil
}

// get fetches a coordinator's /status document; the path is appended
// to a bare host:port URL.
func get(url string) ([]byte, error) {
	url = strings.TrimSuffix(strings.TrimRight(url, "/"), "/status") + "/status"
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
