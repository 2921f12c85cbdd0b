// Package serve exposes the MOT fault simulator as a long-running HTTP
// service: a run registry (POST /runs, GET /runs/{id}, DELETE
// /runs/{id}), per-run event streams (SSE), Prometheus metric
// exposition backed by the core live-snapshot publisher, health and
// pprof endpoints. The batch CLIs reuse the telemetry half via
// NewRunTelemetry and MetricsMux for their -metrics-addr flag.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/profiling"
)

// RegisterLiveCounters registers one Prometheus counter per run counter
// (core.RunCounters) under prefix (e.g. "motserve"); nanosecond
// counters are exposed in seconds. The counters form one batch: snap is
// called once per scrape. It must be safe for concurrent use and each
// returned counter must be non-decreasing between calls —
// core.LiveStats.Snapshot and sums of such snapshots over a grow-only
// run set both qualify.
func RegisterLiveCounters(reg *metrics.Registry, prefix string, snap func() core.LiveSnapshot) {
	var s core.LiveSnapshot
	b := reg.Batch(func() { s = snap() })
	for _, c := range core.RunCounters() {
		b.CounterFunc(prefix+"_"+c.Family, c.Help, func() float64 {
			return float64(c.Value(&s)) * c.Unit.Scale()
		})
	}
}

// RegisterLiveHistograms exposes the run histograms (core.Hists) read
// from source once per scrape (e.g. a LiveStats' Metrics method, or the
// server's latest-run accessor). The histograms are scraped mid-run
// directly from the concurrency-safe core collectors; while source
// returns nil every series reads zero.
func RegisterLiveHistograms(reg *metrics.Registry, prefix string, source func() *core.RunMetrics) {
	var m *core.RunMetrics
	b := reg.Batch(func() { m = source() })
	for h, d := range core.Hists() {
		b.HistogramFunc(prefix+"_"+d.Family, d.Help, d.Unit.Scale(),
			func() metrics.Snapshot {
				if m == nil {
					return metrics.Snapshot{}
				}
				return m[h].Snapshot()
			},
			func() []*metrics.Exemplar {
				if m == nil {
					return nil
				}
				return m[h].Exemplars()
			})
	}
}

// NewRunTelemetry wires a fresh LiveStats into a fresh Registry under
// the given prefix — the one-call setup the batch CLIs use for
// -metrics-addr. Set the returned LiveStats as Config.Live on every
// run whose progress should be scraped.
func NewRunTelemetry(prefix string) (*metrics.Registry, *core.LiveStats) {
	reg := metrics.NewRegistry()
	live := &core.LiveStats{}
	RegisterLiveCounters(reg, prefix, live.Snapshot)
	RegisterLiveHistograms(reg, prefix, live.Metrics)
	metrics.RegisterRuntime(reg, prefix)
	return reg, live
}

// MetricsMux returns an http.Handler serving /metrics from reg plus
// /healthz and the /debug/pprof endpoints — the sidecar surface the
// batch CLIs expose under -metrics-addr.
func MetricsMux(reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	profiling.RegisterHTTP(mux)
	return mux
}

// StartMetricsServer serves MetricsMux(reg) on addr in the background —
// the batch CLIs' -metrics-addr sidecar. The listener is bound
// synchronously so address errors surface immediately; the returned
// stop function shuts the server down and blocks until it exits.
func StartMetricsServer(addr string, reg *metrics.Registry) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: MetricsMux(reg)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}
