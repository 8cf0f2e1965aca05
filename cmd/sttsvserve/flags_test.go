package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestHelperServeMain is not a test: serveCommand re-executes the test
// binary into it to run main with the arguments after "--", so the tests
// below observe the command's real exit status and output.
func TestHelperServeMain(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("not a helper process")
	}
	os.Args = append([]string{"sttsvserve"}, flag.Args()...)
	main()
	os.Exit(0)
}

// serveCommand is the sttsvserve command with args on a small q=2, b=2
// tensor, killed when ctx ends.
func serveCommand(ctx context.Context, args string) *exec.Cmd {
	argv := append([]string{"-test.run=^TestHelperServeMain$", "--", "-q", "2", "-b", "2"}, strings.Fields(args)...)
	return exec.CommandContext(ctx, os.Args[0], argv...)
}

// checkFlagError runs the command with args and wants exit status 2 with
// cause named on standard error.
func checkFlagError(t *testing.T, args, cause string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := serveCommand(ctx, "-addr 127.0.0.1:0 "+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), cause) {
		t.Errorf("%s: %v, stderr %q; want exit status 2 naming %s", args, err, stderr.String(), cause)
	}
}

// TestNonPositivePoolFlagsAreFlagErrors: the serving pool replaces a
// non-positive session count, batch width or batching delay with its
// default, so a server started with one reported the zero on /v1/info
// while running something else. Each is a flag error now: exit status 2,
// naming the flag, before anything is served.
func TestNonPositivePoolFlagsAreFlagErrors(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-sessions 0", "-sessions"},
		{"-maxcols -1", "-maxcols"},
		{"-maxwait 0s", "-maxwait"},
	} {
		checkFlagError(t, tc.args, tc.flag)
	}
}

// TestCommandLineErrorsExitTwo: every other bad command line also exits
// with status 2, naming its cause, before anything is served, so a script
// can tell it from a server that failed to start (status 1).
func TestCommandLineErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct{ args, cause string }{
		{"-backend bogus", "bogus"},
		{"-metrics-interval 1s", "-metrics-interval"},
		{"-wiring ring", "ring"},
		{"-workload tucker", "tucker"},
		{"-workload dense -n 10", "-n"},
		{"-q 6", "-q"},
		{"-b 0", "-b"},
		{"-b -1", "-b"},
		{"-workload cp -cpranks 0", "-cpranks"},
		{"-workload cp -cpranks -2", "-cpranks"},
		{"-workload cp -rank 0", "-rank 0"},
	} {
		checkFlagError(t, tc.args, tc.cause)
	}
}

// TestInfoReportsThePoolItRuns starts a server with the default queue
// bound (-queue 0) and checks that /v1/info reports the pool the
// /v1/metrics snapshot shows running, and the default bound 4 × sessions
// × maxcols. The server binds -addr 127.0.0.1:0 before its banner, so the
// banner names the bound port and a request sent after it is served.
func TestInfoReportsThePoolItRuns(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := serveCommand(ctx, "-addr 127.0.0.1:0 -sessions 1 -maxcols 3 -maxwait 700us -queue 0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		_ = cmd.Wait()
	}()
	const banner = "listening on "
	sc := bufio.NewScanner(stdout)
	for !strings.Contains(sc.Text(), banner) {
		if !sc.Scan() {
			t.Fatalf("server exited before listening: %v", sc.Err())
		}
	}
	addr := sc.Text()[strings.LastIndex(sc.Text(), banner)+len(banner):]
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("banner %q names %q, want the bound address", sc.Text(), addr)
	}

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// /v1/metrics is JSONL; its first line is the pool aggregate.
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var info infoResponse
	get("/v1/info", &info)
	var pool struct {
		Sessions  int     `json:"sessions"`
		MaxCols   int     `json:"max_cols"`
		MaxWaitUs float64 `json:"max_wait_us"`
	}
	get("/v1/metrics", &pool)
	if info.Sessions != 1 || info.MaxCols != 3 || info.MaxWaitUs != 700 || info.QueueCap != 4*1*3 {
		t.Errorf("/v1/info reports %+v, want 1 session, 3 columns, 700 µs, queue 12", info)
	}
	if pool.Sessions != info.Sessions || pool.MaxCols != info.MaxCols || pool.MaxWaitUs != info.MaxWaitUs {
		t.Errorf("/v1/metrics shows the pool running %+v, /v1/info reports %+v", pool, info)
	}
}
