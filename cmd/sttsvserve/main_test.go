package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newTestServer serves a one-session pool over a random q = 2, b = 2
// tensor (n = 10) through the real apply handler.
func newTestServer(t testing.TB) (*httptest.Server, int) {
	t.Helper()
	return newTestServerOn(t, machine.RunConfig{})
}

// newTestServerOn is newTestServer with the sessions' machine config.
func newTestServerOn(t testing.TB, mc machine.RunConfig) (*httptest.Server, int) {
	t.Helper()
	part, err := partition.NewSpherical(2)
	if err != nil {
		t.Fatal(err)
	}
	const b = 2
	n := part.M * b
	pool, err := serve.Open(tensor.Random(n, rand.New(rand.NewSource(1))), serve.Options{
		Session:  parallel.Options{Part: part, B: b, Machine: mc},
		Sessions: 1, MaxCols: 2, MaxWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Error(err)
		}
	})
	srv := &server{pool: pool}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/apply", srv.handleApply)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, n
}

// postApply sends x and returns the status and the decoded JSON body; a
// body that is empty or not JSON fails the test.
func postApply(t *testing.T, url string, x []float64) (int, map[string]any) {
	t.Helper()
	req, err := json.Marshal(applyRequest{Tenant: "t", X: x})
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, req)
}

// postBody is postApply with a raw request body.
func postBody(t *testing.T, url string, req []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/apply", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("status %d with an undecodable body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

func TestApplyReturnsResult(t *testing.T) {
	hs, n := newTestServer(t)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	status, body := postApply(t, hs.URL, x)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %v", status, body)
	}
	if y, ok := body["y"].([]any); !ok || len(y) != n {
		t.Fatalf("y = %v, want %d entries", body["y"], n)
	}
}

// TestApplyNonFiniteResultIsCallerError: x entries of 1e200 overflow y
// to ±Inf, which JSON cannot carry. The server must answer with a JSON
// error and a 4xx status, not a 200 with an empty body.
func TestApplyNonFiniteResultIsCallerError(t *testing.T) {
	hs, n := newTestServer(t)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1e200
	}
	status, body := postApply(t, hs.URL, x)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %v, want %d", status, body, http.StatusUnprocessableEntity)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Fatalf("body %v carries no error message", body)
	}
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded must become
// a JSON error with a 5xx status, never the intended status with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusInternalServerError)
	}
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("body %q (%v), want a JSON error", rec.Body.String(), err)
	}
}

// TestApplyWrongLengthIsBadRequest: an x of the wrong length is the
// caller's error.
func TestApplyWrongLengthIsBadRequest(t *testing.T) {
	hs, n := newTestServer(t)
	status, body := postApply(t, hs.URL, make([]float64, n-1))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, body %v, want %d", status, body, http.StatusBadRequest)
	}
}

// TestApplyEngineFailureIsServerError: a batch the engine fails to serve
// (here a rank crash on a session without recovery) is the server's
// fault — 500, not the 400 of a malformed request.
func TestApplyEngineFailureIsServerError(t *testing.T) {
	hs, n := newTestServerOn(t, machine.RunConfig{
		Transport: fault.TransportRecoverable(fault.Plan{Seed: 3, Crash: map[int]int{1: 4}},
			fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout: 300 * time.Millisecond,
	})
	status, body := postApply(t, hs.URL, make([]float64, n))
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %v, want %d", status, body, http.StatusInternalServerError)
	}
}

// TestApplyOversizedBodyIsRejected: a body longer than n floats can
// need is cut off at the bound with 413 — even when it is valid JSON
// padded with whitespace, which an unbounded decoder would read to the
// end.
func TestApplyOversizedBodyIsRejected(t *testing.T) {
	hs, n := newTestServer(t)
	x, err := json.Marshal(make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(`{"tenant":"t","x":`), x...)
	body = append(body, bytes.Repeat([]byte(" "), int(maxApplyBody(n)))...)
	body = append(body, '}')
	status, resp := postBody(t, hs.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, body %v, want %d", status, resp, http.StatusRequestEntityTooLarge)
	}
}

// TestHTTPServerHasReadDeadlines: the front end must bound how long a
// client may take to send its headers and its body.
func TestHTTPServerHasReadDeadlines(t *testing.T) {
	hs := newHTTPServer(http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, ReadTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
}

// FuzzHandleApply drives /v1/apply end to end with arbitrary bodies on a
// healthy engine. The handler must never panic and must always answer
// with a JSON body, and the status class must match the cause: 400 for a
// malformed body or an x of the wrong length (a DimError), 413 only for a
// body over the size bound, 200 — or 422 for a result that overflows
// float64 — for a well-formed request, and never 5xx, since nothing here
// makes the engine fail.
func FuzzHandleApply(f *testing.F) {
	hs, n := newTestServer(f)
	seed := func(x []float64) []byte {
		body, err := json.Marshal(applyRequest{Tenant: "t", X: x})
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	valid := make([]float64, n)
	huge := make([]float64, n)
	for i := range valid {
		valid[i] = float64(i%3) - 1
		huge[i] = 1e200
	}
	zeros, err := json.Marshal(make([]float64, n))
	if err != nil {
		f.Fatal(err)
	}
	oversized := append([]byte(`{"tenant":"t","x":`), zeros...)
	oversized = append(oversized, bytes.Repeat([]byte(" "), int(maxApplyBody(n)))...)
	oversized = append(oversized, '}')
	for _, body := range [][]byte{seed(valid), seed(huge), seed(make([]float64, n)), seed(make([]float64, n-1)), oversized} {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(hs.URL+"/v1/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(out) {
			t.Fatalf("status %d with a body that is not JSON: %q", resp.StatusCode, out)
		}
		var req applyRequest
		malformed := json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || len(req.X) != n
		ok := resp.StatusCode == http.StatusRequestEntityTooLarge && int64(len(body)) > maxApplyBody(n)
		if malformed {
			ok = ok || resp.StatusCode == http.StatusBadRequest
		} else {
			ok = ok || resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity
		}
		if !ok {
			t.Fatalf("status %d (%s) for a %d-byte body (malformed %v)", resp.StatusCode, out, len(body), malformed)
		}
	})
}
