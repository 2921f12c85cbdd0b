// Command motserve runs the MOT fault simulator as a long-running HTTP
// service: submit runs, watch them live, scrape Prometheus metrics.
//
//	motserve -addr :8080
//
// Endpoints:
//
//	POST   /runs              submit a run (JSON body, see serve.RunRequest)
//	GET    /runs              list runs
//	GET    /runs/{id}         status, stage breakdown, partial counts
//	DELETE /runs/{id}         cancel a run
//	GET    /runs/{id}/events  Server-Sent Events stream (progress, trace)
//	GET    /runs/{id}/trace   span trace (Chrome trace-event JSON, for ui.perfetto.dev)
//	GET    /metrics           Prometheus text exposition
//	GET    /healthz           liveness probe
//	GET    /debug/events      span flight recorder (recent spans as JSONL; ?n= bounds)
//	GET    /debug/pprof/      runtime profiles
//
// Example session:
//
//	curl -s -X POST localhost:8080/runs -d '{"circuit":"sg298","random":96}'
//	curl -s localhost:8080/runs/r0001
//	curl -s localhost:8080/metrics | grep motserve_faults_done_total
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		maxRuns  = flag.Int("max-runs", 64, "maximum registered runs (the oldest finished runs are evicted to make room)")
		maxConc  = flag.Int("max-concurrent", max(1, runtime.NumCPU()/2), "runs executing simultaneously; further submissions queue")
		cacheMiB = flag.Int64("cache-size", 256, "cross-run cache budget in MiB (compiled circuits and fault-free traces); 0 disables")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		drainFor = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight runs")
		traceSmp = flag.Float64("trace-sample", 0, "default per-fault span sampling rate in [0,1] for run tracers; 0 means 0.05 (requests may override)")
		flightN  = flag.Int("flight-recorder", 4096, "size of the span flight recorder behind /debug/events")
	)
	flag.Parse()
	if err := run(*addr, *maxRuns, *maxConc, *cacheMiB, *logJSON, *drainFor, *traceSmp, *flightN); err != nil {
		fmt.Fprintln(os.Stderr, "motserve:", err)
		os.Exit(1)
	}
}

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers, so a slow or stalled one cannot hold a connection
// open for free, and an idle keep-alive connection closes after
// idleTimeout. There is deliberately no read or write timeout on the
// whole request: /runs/{id}/events streams for as long as a run lasts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the listener's http.Server with the connection
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr string, maxRuns, maxConc int, cacheMiB int64, logJSON bool, drainFor time.Duration, traceSample float64, flightRecorder int) error {
	if traceSample < 0 || traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0, 1], got %g", traceSample)
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	// The flag speaks MiB with 0 = off; the Config speaks bytes with
	// negative = off (its zero value selects the default budget).
	cacheBytes := cacheMiB << 20
	if cacheMiB <= 0 {
		cacheBytes = -1
	}
	s := serve.NewServer(serve.Config{
		MaxConcurrent:  maxConc,
		MaxRuns:        maxRuns,
		CacheBytes:     cacheBytes,
		Logger:         log,
		TraceSample:    traceSample,
		FlightRecorder: flightRecorder,
	})
	httpSrv := newHTTPServer(addr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", addr, "max_concurrent", maxConc, "max_runs", maxRuns, "cache_mib", cacheMiB)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down", "drain", drainFor)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	// Stop accepting connections first, then cancel and drain the runs.
	err := httpSrv.Shutdown(shutCtx)
	if closeErr := s.Close(shutCtx); closeErr != nil && err == nil {
		err = closeErr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if err == nil {
		log.Info("shutdown complete")
	}
	return err
}
