package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/xtrace"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrent bounds simultaneously executing runs; further
	// submissions queue. Zero means 1.
	MaxConcurrent int
	// MaxRuns caps the registry size. Finished runs (done, failed or
	// canceled) stay registered until a submission finds the registry
	// full; then the oldest finished runs are evicted, their counters
	// folded into the server's retired totals. A submission is rejected
	// with 503 only when every slot holds a queued or running run. Zero
	// means 64.
	MaxRuns int
	// CacheBytes is the byte budget of the cross-run memoization cache
	// (compiled circuits and fault-free traces, keyed by request
	// content). Zero means the 256 MiB default; negative disables the
	// cache entirely.
	CacheBytes int64
	// Prefix is the metric-name prefix, default "motserve".
	Prefix string
	// Logger receives structured request/run logs; default slog.Default.
	Logger *slog.Logger
	// TraceSample is the default per-fault span sampling rate for run
	// tracers, in [0, 1] (see core.Config.TraceSampleRate); zero selects
	// the core default (0.05). Requests may override it per run.
	TraceSample float64
	// FlightRecorder is the size of the shared span flight recorder
	// behind GET /debug/events (HTTP request spans and all run spans
	// feed it). Zero means 4096.
	FlightRecorder int
}

// Server is the run registry plus its HTTP surface. Create with
// NewServer, mount Handler, and stop with Close.
type Server struct {
	cfg Config
	log *slog.Logger
	reg *metrics.Registry

	// cache memoizes compiled circuits and fault-free traces across
	// runs; nil when disabled (its methods are nil-safe).
	cache *runCache

	sem chan struct{} // execution slots

	// ring is the process-wide span flight recorder: the HTTP tracer and
	// every per-run tracer feed it, so GET /debug/events shows recent
	// activity across the whole server. tracer records one span per HTTP
	// request on the httpTrack track.
	ring      *xtrace.Ring
	tracer    *xtrace.Tracer
	httpTrack int32
	reqSeq    atomic.Int64

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string // creation order, for GET /runs
	nextID int
	closed bool
	wg     sync.WaitGroup
	// retired and retiredSpans hold the final live snapshots and span
	// stats of the evicted runs, so the summed counters stay monotonic.
	retired      core.LiveSnapshot
	retiredSpans xtrace.Stats

	httpRequests *metrics.Counter

	// routeWin holds one rolling request-latency window per route label
	// (see routeName); runWin rolls run wall times. Both feed the
	// *_rate1m/_p95_1m/... gauge families.
	routeWin map[string]*metrics.Window
	runWin   *metrics.Window

	// runCPUNS/runAllocBytes accumulate per-run resource attribution
	// (see RunResources) across all completed executions.
	runCPUNS      atomic.Int64
	runAllocBytes atomic.Int64
	// runsPanicked counts runs failed by a recovered panic (see
	// Run.simulate).
	runsPanicked atomic.Int64
}

// NewServer builds a server and registers its metrics: every core
// live-snapshot counter summed across all registered and evicted runs
// (monotonic — an evicted run's final counters are retired, not
// dropped), the per-fault histograms of the most recently started run,
// and server-level gauges.
func NewServer(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 64
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "motserve"
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.FlightRecorder <= 0 {
		cfg.FlightRecorder = 4096
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		cfg.TraceSample = 0 // core default
	}
	ring := xtrace.NewRing(cfg.FlightRecorder)
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		reg:    metrics.NewRegistry(),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		runs:   make(map[string]*Run),
		ring:   ring,
		tracer: xtrace.New(xtrace.Options{Ring: ring}),
	}
	s.httpTrack = s.tracer.RegisterTrack("http")
	if cfg.CacheBytes > 0 {
		s.cache = newRunCache(cfg.CacheBytes)
	}
	RegisterLiveCounters(s.reg, cfg.Prefix, s.liveSnapshot)
	s.reg.CounterFunc(cfg.Prefix+"_runs_panicked_total", "Runs failed by a recovered panic.",
		func() float64 { return float64(s.runsPanicked.Load()) })
	RegisterLiveHistograms(s.reg, cfg.Prefix, s.latestMetrics)
	var running, queued int
	st := s.reg.Batch(func() { running, queued = s.countActive() })
	st.GaugeFunc(cfg.Prefix+"_runs_active", "Runs currently executing.",
		func() float64 { return float64(running) })
	st.GaugeFunc(cfg.Prefix+"_runs_queued", "Runs waiting for an execution slot.",
		func() float64 { return float64(queued) })
	s.httpRequests = s.reg.Counter(cfg.Prefix+"_http_requests_total", "HTTP requests served.")
	// The cache series register even when the cache is disabled (they
	// then read zero forever) so dashboards need no conditional panels.
	var cs cache.Stats
	cb := s.reg.Batch(func() { cs = s.cache.stats() })
	cb.CounterFunc(cfg.Prefix+"_cache_hits_total", "Cross-run cache lookups that hit.",
		func() float64 { return float64(cs.Hits) })
	cb.CounterFunc(cfg.Prefix+"_cache_misses_total", "Cross-run cache lookups that missed.",
		func() float64 { return float64(cs.Misses) })
	cb.CounterFunc(cfg.Prefix+"_cache_evictions_total", "Cross-run cache entries evicted.",
		func() float64 { return float64(cs.Evictions) })
	cb.GaugeFunc(cfg.Prefix+"_cache_bytes_total", "Accounted bytes resident in the cross-run cache.",
		func() float64 { return float64(cs.Bytes) })
	var spans xtrace.Stats
	sb := s.reg.Batch(func() { spans = s.spanStats() })
	sb.CounterFunc(cfg.Prefix+"_trace_spans_total",
		"Spans recorded across the HTTP tracer and every run tracer.",
		func() float64 { return float64(spans.Spans) })
	sb.CounterFunc(cfg.Prefix+"_trace_spans_dropped_total",
		"Spans discarded because a tracer's merged span store was full.",
		func() float64 { return float64(spans.Dropped) })
	metrics.RegisterRuntime(s.reg, cfg.Prefix)
	s.routeWin = make(map[string]*metrics.Window, len(routeNames))
	for _, route := range routeNames {
		w := metrics.NewWindow(routeWindowInterval, routeWindowSpan, httpLatencyBounds()...)
		s.routeWin[route] = w
		metrics.RegisterWindow(s.reg, cfg.Prefix+"_http_"+route+"_seconds",
			"HTTP request latency, route "+route, 1e-9, w)
	}
	s.runWin = metrics.NewWindow(routeWindowInterval, routeWindowSpan, runLatencyBounds()...)
	metrics.RegisterWindow(s.reg, cfg.Prefix+"_run_seconds", "Run wall time", 1e-9, s.runWin)
	s.reg.CounterFunc(cfg.Prefix+"_run_cpu_seconds_total",
		"CPU time (user+system) attributed to run execution; overlapping runs each absorb the process total.",
		func() float64 { return time.Duration(s.runCPUNS.Load()).Seconds() })
	s.reg.CounterFunc(cfg.Prefix+"_run_alloc_bytes_total",
		"Heap bytes allocated during run execution; overlapping runs each absorb the process total.",
		func() float64 { return float64(s.runAllocBytes.Load()) })
	return s
}

// Rolling-window geometry shared by the per-route and per-run windows:
// 10-second buckets covering the 5-minute horizon.
const (
	routeWindowInterval = 10 * time.Second
	routeWindowSpan     = 5 * time.Minute
)

// httpLatencyBounds covers ~65 microseconds to ~4.5 minutes in
// nanoseconds, the plausible span of API request durations.
func httpLatencyBounds() []int64 { return metrics.ExpBounds(1<<16, 4, 12) }

// runLatencyBounds covers ~1 millisecond to ~18 hours in nanoseconds,
// the plausible span of whole-run wall times.
func runLatencyBounds() []int64 { return metrics.ExpBounds(1e6, 4, 13) }

// spanStats sums span accounting over the HTTP tracer, every run
// tracer and the evicted runs' retired stats, so both sums are
// monotonic and sound to scrape as counters.
func (s *Server) spanStats() xtrace.Stats {
	sum := s.tracer.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	sum.Spans += s.retiredSpans.Spans
	sum.Dropped += s.retiredSpans.Dropped
	for _, r := range s.runs {
		st := r.tracer.Stats()
		sum.Spans += st.Spans
		sum.Dropped += st.Dropped
	}
	return sum
}

// Registry exposes the server's metric registry (for tests and for
// embedding extra metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// liveSnapshot sums the per-run snapshots and the retired ones. Each
// run's snapshot is monotonic and an evicted run's final snapshot is
// retired under the same lock, so every summed field is monotonic too —
// sound to scrape as counters.
func (s *Server) liveSnapshot() core.LiveSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := s.retired
	for _, r := range s.runs {
		sum.Add(r.live.Snapshot())
	}
	return sum
}

// latestMetrics returns the per-fault histograms of the most recently
// created run that has any (nil before the first metrics-enabled run) —
// the histogram source for the exposition. Unlike the counters these
// are per-run distributions, so the newest run wins rather than a sum.
func (s *Server) latestMetrics() *core.RunMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if m := s.runs[s.order[i]].live.Metrics(); m != nil {
			return m
		}
	}
	return nil
}

// countActive counts the registered runs that are running and queued.
func (s *Server) countActive() (running, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		r.mu.Lock()
		switch r.status {
		case StatusRunning:
			running++
		case StatusQueued:
			queued++
		}
		r.mu.Unlock()
	}
	return running, queued
}

// Handler returns the server's full HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleCreate)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/events", s.handleDebugEvents)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	profiling.RegisterHTTP(mux)
	return s.withTelemetry(mux)
}

// handleHealthz is GET /healthz: "ok" while serving, and 503 "draining"
// with the pending run count once Close has begun — load balancers stop
// routing to a draining instance while in-flight runs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if closed {
		running, queued := s.countActive()
		pending := running + queued
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "draining (%d runs pending)\n", pending)
		return
	}
	fmt.Fprintln(w, "ok")
}

// maxRequestBytes caps a POST /runs body. The largest suite netlist's
// .bench text (sg35932) is about 150 KiB, so inline netlists and vector
// sets far beyond the suite fit, while one request can no longer make
// the server buffer an unbounded body.
const maxRequestBytes = 16 << 20

// handleCreate is POST /runs: validate, compile, register, and start
// the run (queued until an execution slot frees up). Responds 202 with
// the initial status, or 413 when the body exceeds maxRequestBytes.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}

	run, err := s.buildRun(req, time.Now())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	run.cancel = cancel

	// One critical section checks the shutdown flag, re-checks the
	// registry cap (evicting finished runs to make room), and reserves
	// the slot (ID + map insert). Splitting the cap check from the
	// insert would let concurrent submissions all pass the check and
	// overfill the registry.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
		return
	}
	if len(s.runs) >= s.cfg.MaxRuns && s.evictFinished(len(s.runs)-s.cfg.MaxRuns+1) == 0 {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("run registry full (%d queued or running runs)", s.cfg.MaxRuns))
		return
	}
	s.nextID++
	id := fmt.Sprintf("r%04d", s.nextID)
	run.ID = id
	s.runs[id] = run
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	// The access-log middleware and API clients read the assigned ID
	// from this header (the body carries it too, but the middleware
	// never parses bodies).
	w.Header().Set("X-Run-ID", id)

	s.log.Info("run submitted", "run", id,
		"circuit", run.circuitName, "method", run.method,
		"faults", run.nfaults, "patterns", run.patterns, "workers", run.workers)

	go func() {
		defer s.wg.Done()
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			// Canceled while queued: the run never executed, so mark it
			// started and finished at the same instant — timestamps then
			// always appear in pairs (a finished run without a start time
			// breaks any elapsed computation downstream).
			now := time.Now()
			run.mu.Lock()
			run.status = StatusCanceled
			run.started = now
			run.finished = now
			run.runErr = ctx.Err()
			run.release()
			run.mu.Unlock()
			run.event("status", map[string]any{"status": StatusCanceled})
			run.events.close()
			s.log.Info("run canceled while queued", "run", id)
			return
		}
		run.execute(ctx, func(cpu time.Duration, alloc int64) {
			s.runCPUNS.Add(int64(cpu))
			s.runAllocBytes.Add(alloc)
		})
		st := run.Status()
		attrs := []any{"run", id, "status", st.Status}
		if st.StartedAt != nil && st.FinishedAt != nil {
			elapsed := st.FinishedAt.Sub(*st.StartedAt)
			s.runWin.Observe(int64(elapsed))
			attrs = append(attrs, "elapsed", elapsed.Round(time.Millisecond))
		}
		if st.Status == StatusDone {
			run.mu.Lock()
			attrs = append(attrs, run.attrs...)
			run.mu.Unlock()
			s.log.Info("run finished", attrs...)
		} else {
			attrs = append(attrs, "error", st.Error)
			s.log.Warn("run finished", attrs...)
		}
	}()

	writeJSON(w, http.StatusAccepted, run.Status())
}

// evictFinished removes up to n of the oldest finished runs (done,
// failed or canceled) from the registry and returns how many it
// removed. Each run's final live snapshot and span stats are folded
// into the retired totals first. Called with s.mu held.
func (s *Server) evictFinished(n int) int {
	evicted := 0
	kept := s.order[:0]
	for _, id := range s.order {
		r := s.runs[id]
		if evicted == n || !r.ended() {
			kept = append(kept, id)
			continue
		}
		s.retired.Add(r.live.Snapshot())
		st := r.tracer.Stats()
		s.retiredSpans.Spans += st.Spans
		s.retiredSpans.Dropped += st.Dropped
		delete(s.runs, id)
		evicted++
	}
	clear(s.order[len(kept):])
	s.order = kept
	return evicted
}

// handleList is GET /runs: all runs in creation order, as
// {"runs": [...]}. The list grows with the registry (a finished run's
// status carries its report), so it is streamed one compact status at
// a time instead of being marshaled, indented, as one value in memory.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"runs":[`)
	for i, run := range runs {
		if i > 0 {
			bw.WriteByte(',')
		}
		_ = enc.Encode(run.Status())
	}
	bw.WriteString("]}\n")
	_ = bw.Flush()
}

// lookup fetches a run by the {id} path value, or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	s.mu.Lock()
	run := s.runs[id]
	s.mu.Unlock()
	if run == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no run %q", id))
	}
	return run
}

// handleGet is GET /runs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if run := s.lookup(w, r); run != nil {
		writeJSON(w, http.StatusOK, run.Status())
	}
}

// handleDelete is DELETE /runs/{id}: cancel the run. The run stays
// registered (status canceled) until evicted to make room; deleting a
// finished run is a no-op cancel.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	run.cancel()
	s.log.Info("run cancel requested", "run", run.ID)
	writeJSON(w, http.StatusOK, run.Status())
}

// handleEvents is GET /runs/{id}/events: a Server-Sent Events stream
// replaying the run's full event log and following it until the run
// completes or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	idx := 0
	for {
		events, done, wake := run.events.next(idx)
		for _, e := range events {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Name, e.Data)
		}
		idx += len(events)
		fl.Flush()
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// Close cancels every run and waits (bounded by ctx) for the run
// goroutines to drain. Further submissions are rejected.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		if r.cancel != nil {
			r.cancel()
		}
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown timed out: %w", ctx.Err())
	}
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
