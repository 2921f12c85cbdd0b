package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freeAddr reserves an ephemeral port and releases it for the server.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// submitAndWait posts one run and polls it to completion, returning the
// final status body.
func submitAndWait(t *testing.T, base string, deadline time.Time) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/runs", "application/json",
		strings.NewReader(`{"circuit":"s27","random":16}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST /runs = %d, id %q", resp.StatusCode, st.ID)
	}

	for {
		resp, err := http.Get(base + "/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch cur["status"] {
		case "done":
			return cur
		case "failed", "canceled":
			t.Fatalf("run ended %q", cur["status"])
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeSubmitAndShutdown boots the real server, submits the same
// run twice (the repeat must hit the cross-run cache), scrapes
// /metrics, and shuts down via SIGTERM.
func TestServeSubmitAndShutdown(t *testing.T) {
	addr := freeAddr(t)
	errCh := make(chan error, 1)
	go func() { errCh <- run(addr, 8, 2, 64, true, 10*time.Second, 1, 256) }()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not come up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	submitAndWait(t, base, deadline)
	warm := submitAndWait(t, base, deadline)
	cacheInfo, _ := warm["cache"].(map[string]any)
	if cacheInfo == nil || cacheInfo["circuit_hit"] != true || cacheInfo["trace_hit"] != true {
		t.Errorf("repeat submission did not hit the cache: %v", warm["cache"])
	}

	// The span endpoints are live too (the server runs at sampling 1).
	for _, path := range []string{"/runs/" + fmt.Sprint(warm["id"]) + "/trace", "/debug/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s = %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}

	mResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, mResp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "motserve_runs_done_total 2") {
		t.Errorf("metrics missing completed runs:\n%.500s", sb.String())
	}
	if !strings.Contains(sb.String(), "motserve_cache_hits_total 2") {
		t.Errorf("metrics missing cache hits:\n%.500s", sb.String())
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestRunBadAddress asserts startup errors surface instead of hanging.
func TestRunBadAddress(t *testing.T) {
	if err := run("127.0.0.1:-7", 1, 1, 0, false, time.Second, 0, 0); err == nil {
		t.Fatal("invalid address accepted")
	}
	if err := run("127.0.0.1:0", 1, 1, 0, false, time.Second, 1.5, 0); err == nil {
		t.Fatal("out-of-range -trace-sample accepted")
	}
}

// TestHTTPServerTimeouts pins the connection timeouts of the listener:
// a header deadline and an idle deadline, and no whole-request read or
// write deadline, which would cut off event streams.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}
