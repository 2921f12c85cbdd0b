package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tgen"
	"repro/internal/vectors"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		MaxConcurrent: 2,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// postRun submits a run and returns its initial status.
func postRun(t *testing.T, ts *httptest.Server, req RunRequest) RunStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, b)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches GET /runs/{id}.
func getStatus(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/%s = %d", id, resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the run reaches a terminal status.
func waitDone(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return RunStatus{}
}

// scrape fetches /metrics and returns the samples by name.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	samples := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue // histogram bucket lines carry labels; skip
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
			samples[fields[0]] = v
		}
	}
	return samples
}

// TestServerRunLifecycle drives the acceptance path: submit an sg
// circuit run, watch /metrics counters move while it executes, and
// assert the final scrape equals the merged Result.Stages values.
func TestServerRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	st := postRun(t, ts, RunRequest{Circuit: "sg298", Random: 96, Seed: 1, Workers: 4})
	if st.Status != StatusQueued && st.Status != StatusRunning {
		t.Fatalf("initial status = %q", st.Status)
	}
	if st.Faults == 0 || st.Patterns != 96 {
		t.Fatalf("initial status faults/patterns: %+v", st)
	}

	// Watch the counters while the run executes: every sampled value
	// must be non-decreasing between scrapes.
	var lastDone, lastFrames float64
	midrunMoves := 0
	for {
		samples := scrape(t, ts)
		done := samples["motserve_faults_done_total"]
		frames := samples["motserve_prescreen_frames_total"] + samples["motserve_event_frames_total"]
		if done < lastDone || frames < lastFrames {
			t.Fatalf("counters went backward: done %v->%v frames %v->%v", lastDone, done, lastFrames, frames)
		}
		if done > lastDone {
			midrunMoves++
		}
		lastDone, lastFrames = done, frames
		cur := getStatus(t, ts, st.ID)
		if cur.Status != StatusQueued && cur.Status != StatusRunning {
			break
		}
	}
	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("final status = %q (%s)", fin.Status, fin.Error)
	}
	if fin.Report == nil {
		t.Fatal("finished run has no report")
	}
	if midrunMoves == 0 {
		t.Log("note: run finished before any mid-run scrape observed movement")
	}

	// Final scrape must equal the merged run report exactly.
	samples := scrape(t, ts)
	rep := fin.Report
	for name, want := range map[string]float64{
		"motserve_runs_started_total":          1,
		"motserve_runs_done_total":             1,
		"motserve_runs_panicked_total":         0,
		"motserve_faults_total":                float64(fin.Faults),
		"motserve_faults_done_total":           float64(fin.Faults),
		"motserve_detected_conventional_total": float64(rep.Conv),
		"motserve_detected_mot_total":          float64(rep.MOT),
		"motserve_pruned_condition_c_total":    float64(rep.PrunedC),
		"motserve_prescreen_passes_total":      float64(rep.Stages.PrescreenPasses),
		"motserve_prescreen_dropped_total":     float64(rep.Stages.PrescreenDropped),
		"motserve_prescreen_pruned_c_total":    float64(rep.Stages.PrescreenPrunedC),
		"motserve_prescreen_frames_total":      float64(rep.Stages.PrescreenFrames),
		"motserve_prescreen_gate_evals_total":  float64(rep.Stages.PrescreenGateEvals),
		"motserve_mot_faults_total":            float64(rep.Stages.MOTFaults),
		"motserve_pairs_total":                 float64(rep.Pairs),
		"motserve_expansions_total":            float64(rep.Expansions),
		"motserve_sequences_total":             float64(rep.Sequences),
		"motserve_imply_calls_total":           float64(rep.Stages.ImplyCalls),
		"motserve_imply_lane_evals_total":      float64(rep.Stages.ImplyLaneEvals),
		"motserve_imply_memo_hits_total":       float64(rep.Stages.ImplyMemoHits),
		"motserve_event_frames_total":          float64(rep.Stages.Sim.EventFrames),
		"motserve_event_gate_evals_total":      float64(rep.Stages.Sim.EventGateEvals),
	} {
		if got := samples[name]; got != want {
			t.Errorf("final scrape %s = %v, want %v", name, got, want)
		}
	}
	if samples["motserve_fault_seconds_count"] != float64(rep.Stages.MOTFaults) {
		t.Errorf("fault_seconds histogram count = %v, want %v",
			samples["motserve_fault_seconds_count"], rep.Stages.MOTFaults)
	}

	// The run's status snapshot agrees with the scrape too.
	if fin.Live.FaultsDone != int64(fin.Faults) || fin.Live.Conv != int64(rep.Conv) {
		t.Errorf("status live snapshot disagrees: %+v vs report %+v", fin.Live, rep)
	}
}

// TestServerEventsStream subscribes to the SSE feed of a traced run and
// asserts status, progress and trace events all arrive, ending with a
// terminal status.
func TestServerEventsStream(t *testing.T) {
	_, ts := newTestServer(t)
	st := postRun(t, ts, RunRequest{Circuit: "sg298", Random: 96, Workers: 2, Trace: true, LiveEvery: 1})

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	counts := map[string]int{}
	var lastStatus string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			counts[event]++
			if event == "status" {
				var p struct {
					Status string `json:"status"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
					t.Fatalf("bad status payload %q: %v", line, err)
				}
				lastStatus = p.Status
			}
			if event == "trace" {
				var p struct {
					Fault string `json:"fault"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
					t.Fatalf("bad trace payload %q: %v", line, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["status"] < 2 {
		t.Errorf("got %d status events, want >= 2", counts["status"])
	}
	if counts["progress"] < 1 {
		t.Errorf("got %d progress events, want >= 1", counts["progress"])
	}
	if counts["trace"] != getStatus(t, ts, st.ID).Faults {
		t.Errorf("got %d trace events, want one per fault (%d)", counts["trace"], getStatus(t, ts, st.ID).Faults)
	}
	if lastStatus != StatusDone {
		t.Errorf("stream ended with status %q", lastStatus)
	}
}

// TestServerCancel cancels an in-flight run via DELETE and asserts it
// lands in canceled with the registry retained.
func TestServerCancel(t *testing.T) {
	_, ts := newTestServer(t)
	// A long random sequence keeps the run busy enough to cancel.
	st := postRun(t, ts, RunRequest{Circuit: "sg641", Random: 512, Workers: 1, Prescreen: boolPtr(false)})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusCanceled && fin.Status != StatusDone {
		t.Fatalf("status after cancel = %q (%s)", fin.Status, fin.Error)
	}
	// The run stays listed either way.
	listResp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID {
		t.Fatalf("GET /runs after cancel: %+v", list.Runs)
	}
}

// TestServerRequestValidation exercises the 4xx paths.
func TestServerRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"no circuit":      `{}`,
		"both sources":    `{"circuit":"s27","bench":"INPUT(a)"}`,
		"unknown circuit": `{"circuit":"nope"}`,
		"bad method":      `{"circuit":"s27","method":"conventional"}`,
		"unknown field":   `{"circuit":"s27","wat":1}`,
		"bad bench":       `{"bench":"NOT A NETLIST("}`,
		"bad vectors":     `{"circuit":"s27","vectors":"01\n"}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/runs/r9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing run: status = %d, want 404", resp.StatusCode)
	}
}

// TestServerRequestBounds checks the numeric request bounds: random,
// inline vectors and nstates above their limits are refused with a 400
// naming the limit and register no run, the limits themselves are
// accepted, and workers beyond NumCPU are clamped to it.
func TestServerRequestBounds(t *testing.T) {
	s, ts := newTestServer(t)
	vecs := func(n int) string { return strings.Repeat("0000\n", n) }
	for _, tc := range []struct {
		name    string
		req     RunRequest
		limit   int // 0: accepted
		workers int
	}{
		{"random over", RunRequest{Circuit: "s27", Random: MaxPatterns + 1}, MaxPatterns, 0},
		{"random 1e9", RunRequest{Circuit: "s27", Random: 1e9}, MaxPatterns, 0},
		{"vectors over", RunRequest{Circuit: "s27", Vectors: vecs(MaxPatterns + 1)}, MaxPatterns, 0},
		{"nstates over", RunRequest{Circuit: "s27", NStates: 1 << 20}, MaxNStates, 0},
		{"random at limit", RunRequest{Circuit: "s27", Random: MaxPatterns, Workers: 1}, 0, 1},
		{"vectors at limit", RunRequest{Circuit: "s27", Vectors: vecs(MaxPatterns), Workers: 1}, 0, 1},
		{"nstates at limit", RunRequest{Circuit: "s27", NStates: MaxNStates, Workers: 1}, 0, 1},
		{"workers clamped", RunRequest{Circuit: "s27", Workers: 1e7}, 0, runtime.NumCPU()},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if tc.limit > 0 {
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), strconv.Itoa(tc.limit)) {
				t.Errorf("%s: %d %s, want 400 naming the limit %d", tc.name, resp.StatusCode, msg, tc.limit)
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: %d %s, want 202", tc.name, resp.StatusCode, msg)
		}
		var st RunStatus
		if err := json.Unmarshal(msg, &st); err != nil {
			t.Fatal(err)
		}
		if st.Workers != tc.workers {
			t.Errorf("%s: workers = %d, want %d", tc.name, st.Workers, tc.workers)
		}
		if fin := waitDone(t, ts, st.ID); fin.Status != StatusDone {
			t.Errorf("%s: status = %q (%s)", tc.name, fin.Status, fin.Error)
		}
	}
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	if n != 4 {
		t.Errorf("%d runs registered, want the 4 accepted", n)
	}
}

// TestServerCreateBodyTooLarge checks that POST /runs stops reading a
// body past maxRequestBytes and answers 413 without registering a run,
// while a body just under the cap is still decoded (and rejected as a
// bad netlist, not as too large).
func TestServerCreateBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct {
		name string
		pad  int
		want int
	}{
		{"over", maxRequestBytes, http.StatusRequestEntityTooLarge},
		{"under", maxRequestBytes - 64, http.StatusBadRequest},
	} {
		body := `{"bench":"` + strings.Repeat("a", tc.pad) + `"}`
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("%d runs registered, want 0", n)
	}
}

// TestServerHealthAndPprof checks the sidecar endpoints.
func TestServerHealthAndPprof(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestServerInlineBenchAndVectors runs a request carrying the netlist
// and sequence inline, matching a serial core run bit for bit.
func TestServerInlineBenchAndVectors(t *testing.T) {
	c, err := circuits.ByName("s27")
	if err != nil {
		t.Fatal(err)
	}
	T := tgen.Random(c.NumInputs(), 24, 7)
	var vb strings.Builder
	if err := vectors.Write(&vb, T); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t)
	st := postRun(t, ts, RunRequest{Circuit: "s27", Vectors: vb.String(), Workers: 2})
	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %q (%s)", fin.Status, fin.Error)
	}

	sim, err := core.NewSimulator(c, T, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(fault.CollapsedList(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(fin.Report.Conv) != want.Conv || int64(fin.Report.MOT) != want.MOT || fin.Faults != want.Total {
		t.Errorf("server run %+v != direct run conv=%d mot=%d total=%d",
			fin.Report, want.Conv, want.MOT, want.Total)
	}
}

// TestServerFinishedRunReleasesWorkingSet checks that a finished run
// drops its circuit, sequence, fault list and warm state, while GET
// /runs/{id} keeps serving the same status and report bytes.
func TestServerFinishedRunReleasesWorkingSet(t *testing.T) {
	s, ts := newTestServer(t)
	st := postRun(t, ts, RunRequest{Circuit: "sg208", Random: 48, Workers: 2})
	fin := waitDone(t, ts, st.ID)
	if fin.Status != StatusDone || fin.Report == nil {
		t.Fatalf("status = %q (%s), report %v", fin.Status, fin.Error, fin.Report)
	}
	s.mu.Lock()
	run := s.runs[st.ID]
	s.mu.Unlock()
	run.mu.Lock()
	kept := run.circuit != nil || run.seq != nil || run.faults != nil ||
		run.warm.CC != nil || run.warm.Good != nil
	run.mu.Unlock()
	if kept {
		t.Error("finished run still holds its working set")
	}
	if fin.Circuit != "sg208" || fin.Patterns != 48 || fin.Faults != fin.Report.Faults {
		t.Errorf("status inputs = %s/%d patterns/%d faults, report has %d faults",
			fin.Circuit, fin.Patterns, fin.Faults, fin.Report.Faults)
	}
	get := func() []byte {
		resp, err := http.Get(ts.URL + "/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := get(), get(); string(a) != string(b) {
		t.Errorf("GET /runs/%s differs between fetches:\n%s\n---\n%s", st.ID, a, b)
	}
}

// TestRunTelemetryFinalScrape checks the batch-CLI telemetry helper:
// a run publishing into NewRunTelemetry's LiveStats exposes the merged
// counters after the run.
func TestRunTelemetryFinalScrape(t *testing.T) {
	reg, live := NewRunTelemetry("motfsim")
	c, err := circuits.ByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	T := tgen.Random(c.NumInputs(), 48, 1)
	cfg := core.DefaultConfig()
	cfg.Live = live
	sim, err := core.NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunParallel(fault.CollapsedList(c), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		fmt.Sprintf("motfsim_faults_done_total %d\n", res.Total),
		fmt.Sprintf("motfsim_detected_conventional_total %d\n", res.Conv),
		fmt.Sprintf("motfsim_imply_calls_total %d\n", res.Stages.ImplyCalls),
		fmt.Sprintf("motfsim_pairs_per_fault_count %d\n", res.MOTFaults),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry exposition missing %q", want)
		}
	}
}

func boolPtr(b bool) *bool { return &b }

// TestServerRegistryEvictsFinished is the regression test for the
// registry wall: finished runs used to stay registered forever, so a
// server answered 503 to every submission after its MaxRuns-th. Now a
// full registry evicts its oldest finished runs: 3×MaxRuns sequential
// runs are all accepted, every /metrics counter stays monotonic across
// the evictions, and an evicted run's ID answers 404.
func TestServerRegistryEvictsFinished(t *testing.T) {
	const maxRuns = 4
	s, ts := serverWith(t, Config{MaxConcurrent: 1, MaxRuns: maxRuns})
	var ids []string
	prev := scrape(t, ts)
	for i := 0; i < 3*maxRuns; i++ {
		st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8, Seed: int64(i + 1), Workers: 1})
		if got := waitDone(t, ts, st.ID); got.Status != StatusDone {
			t.Fatalf("run %d (%s) ended %s: %s", i, st.ID, got.Status, got.Error)
		}
		ids = append(ids, st.ID)
		cur := scrape(t, ts)
		for name, v := range prev {
			if strings.HasSuffix(name, "_total") && cur[name] < v {
				t.Fatalf("after run %d: counter %s fell %v -> %v", i, name, v, cur[name])
			}
		}
		prev = cur
	}
	if got := prev["motserve_runs_started_total"]; got != 3*maxRuns {
		t.Errorf("motserve_runs_started_total = %v, want %d", got, 3*maxRuns)
	}
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	if n > maxRuns {
		t.Errorf("registry holds %d runs, cap %d", n, maxRuns)
	}
	resp, err := http.Get(ts.URL + "/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted run %s = %d, want 404", ids[0], resp.StatusCode)
	}
	getStatus(t, ts, ids[len(ids)-1]) // the newest run is still registered
}

// TestServerRunPanicFails makes a run panic outside core's fault loop
// (building the simulator of a run whose circuit is gone), inside it (a
// fault whose site is out of range) and in a prescreen batch on two
// workers (a branch fault whose pin is out of range), and asserts each
// run ends failed with the panic and its stack in the status and in the
// terminal event, instead of taking the process down.
func TestServerRunPanicFails(t *testing.T) {
	s, ts := newTestServer(t)
	panicked := 0.0
	serial := RunRequest{Circuit: "s27", Random: 8, Prescreen: boolPtr(false)}
	for name, c := range map[string]struct {
		req      RunRequest
		breakRun func(r *Run)
	}{
		"simulator": {serial, func(r *Run) { r.circuit, r.warm = nil, core.Warm{} }},
		"fault":     {serial, func(r *Run) { r.faults[0].Node = 1 << 30 }},
		"prescreen": {RunRequest{Circuit: "sg641", Random: 8}, func(r *Run) {
			r.workers = 2
			for k := range r.faults {
				if !r.faults[k].IsStem() {
					r.faults[k].Pin = 1 << 30
					return
				}
			}
		}},
	} {
		r, err := s.buildRun(c.req, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		c.breakRun(r)
		r.execute(context.Background(), func(time.Duration, int64) {})
		st := r.Status()
		if st.Status != StatusFailed || !strings.Contains(st.Error, "panic") || !strings.Contains(st.Error, "goroutine ") {
			t.Errorf("%s: status %q, error %.200q; want failed with the panic and its stack", name, st.Status, st.Error)
		}
		events, done, _ := r.events.next(0)
		if !done || len(events) == 0 {
			t.Fatalf("%s: event stream not closed", name)
		}
		last := events[len(events)-1]
		if last.Name != "status" || !strings.Contains(last.Data, `"failed"`) || !strings.Contains(last.Data, "panic") {
			t.Errorf("%s: terminal event %s %.200s; want a failed status carrying the panic", name, last.Name, last.Data)
		}
		// A panic recovered by Run.simulate (simulator) and one the core
		// worker pool contained (fault, prescreen) count as a panicked run.
		panicked++
		if got := scrape(t, ts)["motserve_runs_panicked_total"]; got != panicked {
			t.Errorf("%s: motserve_runs_panicked_total = %v, want %v", name, got, panicked)
		}
	}
}
