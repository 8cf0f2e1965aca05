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
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := serveCommand(ctx, "-addr 127.0.0.1:0 "+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%s: %v, stderr %q; want exit status 2 naming %s", tc.args, err, stderr.String(), tc.flag)
		}
	}
}

// TestInfoReportsThePoolItRuns starts a server with the default queue
// bound (-queue 0) and checks that /v1/info reports the pool the
// /v1/metrics snapshot shows running, and the default bound 4 × sessions
// × maxcols.
func TestInfoReportsThePoolItRuns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := serveCommand(ctx, "-addr "+addr+" -sessions 1 -maxcols 3 -maxwait 700us -queue 0")
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
	for sc := bufio.NewScanner(stdout); !strings.Contains(sc.Text(), "listening on"); {
		if !sc.Scan() {
			t.Fatalf("server exited before listening: %v", sc.Err())
		}
	}

	get := func(path string, v any) {
		t.Helper()
		// The banner precedes the listen, so the first request may
		// arrive before the socket is open.
		resp, err := http.Get("http://" + addr + path)
		for tries := 0; err != nil && tries < 100; tries++ {
			time.Sleep(50 * time.Millisecond)
			resp, err = http.Get("http://" + addr + path)
		}
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
