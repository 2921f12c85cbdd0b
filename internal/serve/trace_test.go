package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xtrace"
)

// chromeDoc is the subset of the Chrome trace-event format the tests
// decode.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// getTrace fetches GET /runs/{id}/trace and decodes it.
func getTrace(t *testing.T, ts *httptest.Server, id string) (chromeDoc, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s/trace = %d", id, resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	return doc, resp
}

// TestServerTraceEndpoint submits a fully sampled run, exports the
// trace both mid-run (must be valid, possibly partial JSON) and after
// completion (must contain the full span tree).
func TestServerTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	rate := 1.0
	st := postRun(t, ts, RunRequest{Circuit: "sg298", Random: 96, Workers: 4, TraceSample: &rate})

	// Mid-run export: the run may or may not still be running when the
	// request lands, but either way the response must parse.
	mid, _ := getTrace(t, ts, st.ID)
	for _, ev := range mid.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}

	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %q (%s)", fin.Status, fin.Error)
	}
	doc, resp := getTrace(t, ts, st.ID)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, st.ID+".trace.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	for _, want := range []string{"run sg298", "prescreen", "mot", "batch", "fault", "expand", "resim"} {
		if names[want] == 0 {
			t.Errorf("final trace missing %q spans: %v", want, names)
		}
	}
	// Fault spans wrap the per-fault MOT pipeline, so at full sampling
	// there is one per fault the prescreen did not already settle: not
	// dropped as conventionally detected, not pruned by condition (C).
	stages := fin.Report.Stages
	if want := fin.Faults - stages.PrescreenDropped - stages.PrescreenPrunedC; names["fault"] != want || want != stages.MOTFaults {
		t.Errorf("trace has %d fault spans, want %d (full sampling, faults past prescreen)", names["fault"], want)
	}
}

// TestServerTraceSampleValidation rejects out-of-range trace_sample.
func TestServerTraceSampleValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"circuit":"s27","trace_sample":1.5}`,
		`{"circuit":"s27","trace_sample":-0.1}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServerTraceparentAndAccessLog checks the telemetry middleware:
// requests carrying a W3C traceparent join that trace (same trace ID in
// the response header, new span ID), bare requests mint one, and every
// request produces a structured access-log line with method, path,
// status, duration and — for run-scoped requests — the run ID.
func TestServerTraceparentAndAccessLog(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	s := NewServer(Config{
		MaxConcurrent: 2,
		Logger: slog.New(slog.NewTextHandler(lockedWriter{&mu, &logBuf}, &slog.HandlerOptions{
			Level: slog.LevelInfo,
		})),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})

	// A request joining an upstream trace.
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("traceparent")
	traceID, span, ok := xtrace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID not propagated: got %s", traceID)
	}
	if fmt.Sprintf("%016x", uint64(span)) == "00f067aa0ba902b7" {
		t.Error("response span ID equals the upstream parent; want a fresh span")
	}

	// A bare request mints a trace of its own.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, _, ok := xtrace.ParseTraceparent(resp2.Header.Get("traceparent")); !ok {
		t.Fatalf("bare request got no valid traceparent: %q", resp2.Header.Get("traceparent"))
	}

	// A run submission followed by a status read: both access-log lines
	// must carry the run ID (POST via the X-Run-ID header, GET via the
	// path).
	st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8})
	waitDone(t, ts, st.ID)

	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	for _, want := range []string{
		"msg=request",
		"method=GET path=/healthz status=200",
		"method=POST path=/runs status=202",
		"run=" + st.ID,
		"trace=4bf92f3577b34da6a3ce929d0e0e4736",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}
	if !strings.Contains(logs, "dur=") {
		t.Errorf("access log lines carry no duration:\n%s", logs)
	}

	// The request spans also reach the flight recorder.
	recent := s.ring.Recent(0)
	var reqSpans int
	for _, sp := range recent {
		if strings.HasPrefix(sp.Name, "GET ") || strings.HasPrefix(sp.Name, "POST ") {
			reqSpans++
		}
	}
	if reqSpans < 3 {
		t.Errorf("flight recorder holds %d request spans, want >= 3", reqSpans)
	}
}

// lockedWriter serializes concurrent slog writes into a shared buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestServerDebugEvents checks the flight-recorder dump: JSONL spans,
// ?n= bounding, and 400 on a malformed n.
func TestServerDebugEvents(t *testing.T) {
	_, ts := newTestServer(t)
	rate := 1.0
	st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8, TraceSample: &rate})
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var span struct {
			Name string `json:"name"`
			ID   string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if span.Name == "" || span.ID == "" {
			t.Fatalf("span line missing fields: %q", sc.Text())
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("flight recorder dump is empty after a traced run")
	}

	resp2, err := http.Get(ts.URL + "/debug/events?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	b, _ := io.ReadAll(resp2.Body)
	if got := strings.Count(string(b), "\n"); got != 2 {
		t.Errorf("n=2 dump has %d lines", got)
	}

	resp3, err := http.Get(ts.URL + "/debug/events?n=wat")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status = %d, want 400", resp3.StatusCode)
	}
}

// TestServerSpanMetrics checks the span accounting counters on
// /metrics after a fully sampled run.
func TestServerSpanMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	rate := 1.0
	st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8, TraceSample: &rate})
	waitDone(t, ts, st.ID)
	samples := scrape(t, ts)
	if samples["motserve_trace_spans_total"] < 10 {
		t.Errorf("trace_spans_total = %v, want a traced run's worth", samples["motserve_trace_spans_total"])
	}
	if samples["motserve_trace_spans_dropped_total"] != 0 {
		t.Errorf("trace_spans_dropped_total = %v, want 0", samples["motserve_trace_spans_dropped_total"])
	}
}

// TestServerEventsClientDisconnect subscribes to a run's SSE stream and
// drops the connection mid-replay; the handler must notice the
// disconnect and return rather than block on the event log forever
// (Close would then time out).
func TestServerEventsClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t)
	// Trace events make the replay long enough that the client is gone
	// before the run completes.
	st := postRun(t, ts, RunRequest{Circuit: "sg641", Random: 256, Workers: 1, Trace: true, LiveEvery: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little of the stream, then vanish.
	buf := make([]byte, 512)
	if _, err := io.ReadAtLeast(resp.Body, buf, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The run still completes and the server still shuts down cleanly
	// (the Cleanup Close would fail if the SSE handler leaked).
	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %q (%s)", fin.Status, fin.Error)
	}
	_ = s
}
