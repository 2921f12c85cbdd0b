package serve

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// serverWith builds a test server with a custom config (logger and
// cleanup wired like newTestServer).
func serverWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServer(cfg)
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

// traceData replays a finished run's event stream and returns the raw
// data payloads of its per-fault trace events, in stream order.
func traceData(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	event := ""
	var out []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "trace":
			out = append(out, strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerWarmColdCrossCheck is the end-to-end memoization gate: a
// repeated identical submission must hit the cache for both the
// compiled circuit and the fault-free trace, and still produce results
// byte-identical to the cold run (same report, same per-fault trace
// stream).
func TestServerWarmColdCrossCheck(t *testing.T) {
	_, ts := newTestServer(t)
	req := RunRequest{Circuit: "sg208", Random: 48, Seed: 3, Workers: 2, Trace: true}

	cold := waitDone(t, ts, postRun(t, ts, req).ID)
	if cold.Status != StatusDone {
		t.Fatalf("cold run: %q (%s)", cold.Status, cold.Error)
	}
	if cold.Cache == nil {
		t.Fatal("cold run reports no cache info")
	}
	if cold.Cache.CircuitHit || cold.Cache.TraceHit {
		t.Fatalf("cold run reports cache hits: %+v", cold.Cache)
	}

	warm := waitDone(t, ts, postRun(t, ts, req).ID)
	if warm.Status != StatusDone {
		t.Fatalf("warm run: %q (%s)", warm.Status, warm.Error)
	}
	if warm.Cache == nil || !warm.Cache.CircuitHit || !warm.Cache.TraceHit {
		t.Fatalf("warm run missed the cache: %+v", warm.Cache)
	}

	if cold.Report == nil || warm.Report == nil {
		t.Fatal("missing report")
	}
	if warm.Report.Conv != cold.Report.Conv || warm.Report.MOT != cold.Report.MOT ||
		warm.Faults != cold.Faults {
		t.Fatalf("warm report conv=%d mot=%d faults=%d != cold conv=%d mot=%d faults=%d",
			warm.Report.Conv, warm.Report.MOT, warm.Faults,
			cold.Report.Conv, cold.Report.MOT, cold.Faults)
	}
	// The warm run skipped the good simulation: its step-0 stage starts
	// from a cached trace, so the compile must be absent from the report
	// timing (compile happens at submission, cached thereafter).
	coldTrace, warmTrace := traceData(t, ts, cold.ID), traceData(t, ts, warm.ID)
	if !reflect.DeepEqual(coldTrace, warmTrace) {
		t.Fatalf("trace streams differ: cold %d events, warm %d events", len(coldTrace), len(warmTrace))
	}
	if len(coldTrace) != cold.Faults {
		t.Fatalf("trace stream has %d events, want %d", len(coldTrace), cold.Faults)
	}

	samples := scrape(t, ts)
	if samples["motserve_cache_hits_total"] < 2 {
		t.Errorf("cache hits = %v, want >= 2 (circuit + trace)", samples["motserve_cache_hits_total"])
	}
	if samples["motserve_cache_misses_total"] < 2 {
		t.Errorf("cache misses = %v, want >= 2", samples["motserve_cache_misses_total"])
	}
	if samples["motserve_cache_bytes_total"] <= 0 {
		t.Errorf("cache bytes = %v, want > 0", samples["motserve_cache_bytes_total"])
	}
}

// TestServerInlineBenchCacheHit checks content addressing of inline
// netlists: the same bench text submitted twice compiles once, while a
// disabled cache reports no cache info at all.
func TestServerInlineBenchCacheHit(t *testing.T) {
	const benchText = `
INPUT(r)
INPUT(x)
OUTPUT(obs)
q = DFF(d)
d = AND(r, t)
t = XOR(q, x)
obs = BUFF(q)
`
	_, ts := newTestServer(t)
	req := RunRequest{Bench: benchText, Random: 16, Workers: 1}

	first := waitDone(t, ts, postRun(t, ts, req).ID)
	if first.Cache == nil || first.Cache.CircuitHit {
		t.Fatalf("first inline run: %+v", first.Cache)
	}
	second := waitDone(t, ts, postRun(t, ts, req).ID)
	if second.Cache == nil || !second.Cache.CircuitHit || !second.Cache.TraceHit {
		t.Fatalf("second inline run missed: %+v", second.Cache)
	}

	// Disabled cache: no cache info on statuses, metrics stay zero.
	_, tsOff := serverWith(t, Config{MaxConcurrent: 2, CacheBytes: -1})
	st := waitDone(t, tsOff, postRun(t, tsOff, req).ID)
	if st.Status != StatusDone {
		t.Fatalf("run with cache disabled: %q (%s)", st.Status, st.Error)
	}
	if st.Cache != nil {
		t.Fatalf("cache disabled but status carries cache info: %+v", st.Cache)
	}
	samples := scrape(t, tsOff)
	if samples["motserve_cache_hits_total"] != 0 || samples["motserve_cache_misses_total"] != 0 {
		t.Errorf("disabled cache counted lookups: hits=%v misses=%v",
			samples["motserve_cache_hits_total"], samples["motserve_cache_misses_total"])
	}
}

// TestServerMaxRunsConcurrentSubmit is the regression test for the
// registry-cap race: the capacity check and the insert used to happen
// under separate lock acquisitions, so a burst of concurrent
// submissions could all pass the check and overfill the registry. The
// test holds the only execution slot, so every accepted run stays
// queued and none can be evicted to make room: with the single critical
// section exactly MaxRuns submissions are accepted.
func TestServerMaxRunsConcurrentSubmit(t *testing.T) {
	const maxRuns = 4
	s, ts := serverWith(t, Config{MaxConcurrent: 1, MaxRuns: maxRuns})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	const submitters = 32
	codes := make([]int, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/runs", "application/json",
				strings.NewReader(`{"circuit":"s27","random":4,"workers":1}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	accepted, rejected := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if accepted != maxRuns || rejected != submitters-maxRuns {
		t.Fatalf("accepted %d rejected %d, want %d/%d", accepted, rejected, maxRuns, submitters-maxRuns)
	}
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	if n != maxRuns {
		t.Fatalf("registry holds %d runs, want %d", n, maxRuns)
	}
}

// TestServerEmptyVectorsRejected is the regression test for inline
// vector text with no patterns (only comments and blank lines), which
// used to build a 0-pattern run instead of failing the request.
func TestServerEmptyVectorsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"comments only":   `{"circuit":"s27","vectors":"# header\n# more\n"}`,
		"blank lines":     `{"circuit":"s27","vectors":"\n\n\n"}`,
		"empty string ok": `{"circuit":"s27"}`, // no vectors at all falls back to random — accepted
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want := http.StatusBadRequest
		if name == "empty string ok" {
			want = http.StatusAccepted
		}
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, want)
		}
	}
}

// TestServerQueuedCancelLifecycle is the regression test for the
// queued-cancel lifecycle: a run canceled before it ever acquired an
// execution slot must still expose a start timestamp (equal to its
// finish), so every finished run has a well-formed elapsed time.
func TestServerQueuedCancelLifecycle(t *testing.T) {
	_, ts := serverWith(t, Config{MaxConcurrent: 1})

	// Occupy the single slot with a long run, then queue a second one.
	// Waiting for the first run to actually hold the slot makes the
	// second one's queued state deterministic.
	long := postRun(t, ts, RunRequest{Circuit: "sg641", Random: 512, Workers: 1, Prescreen: boolPtr(false)})
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, long.ID).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("long run never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8, Workers: 1})
	if queued.Status != StatusQueued {
		t.Fatalf("second run status = %q, want queued", queued.Status)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fin := waitDone(t, ts, queued.ID)
	if fin.Status != StatusCanceled {
		t.Fatalf("queued run after cancel = %q (%s)", fin.Status, fin.Error)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Fatalf("canceled queued run missing timestamps: started=%v finished=%v",
			fin.StartedAt, fin.FinishedAt)
	}
	if !fin.StartedAt.Equal(*fin.FinishedAt) {
		t.Errorf("queued cancel: started %v != finished %v", fin.StartedAt, fin.FinishedAt)
	}

	// Release the slot promptly.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+long.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitDone(t, ts, long.ID)
}

// TestServerDefaultSequenceCacheKey checks that the random-sequence
// defaults (64 patterns, seed 1) key the fault-free trace like the
// explicit request they stand for, and that another seed misses.
func TestServerDefaultSequenceCacheKey(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		req      RunRequest
		traceHit bool
	}{
		{RunRequest{Circuit: "s27", Workers: 1}, false},
		{RunRequest{Circuit: "s27", Random: 64, Seed: 1, Workers: 1}, true},
		{RunRequest{Circuit: "s27", Random: 64, Seed: 2, Workers: 1}, false},
	} {
		st := waitDone(t, ts, postRun(t, ts, tc.req).ID)
		if st.Status != StatusDone || st.Patterns != 64 {
			t.Fatalf("%+v: status %q, %d patterns (%s)", tc.req, st.Status, st.Patterns, st.Error)
		}
		if st.Cache == nil || st.Cache.TraceHit != tc.traceHit {
			t.Errorf("%+v: cache %+v, want trace hit %v", tc.req, st.Cache, tc.traceHit)
		}
	}
}
