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
// counters are exposed in seconds. snap is called per scrape; it must
// be safe for concurrent use and each returned counter must be
// non-decreasing between calls — core.LiveStats.Snapshot and sums of
// such snapshots over a grow-only run set both qualify.
func RegisterLiveCounters(reg *metrics.Registry, prefix string, snap func() core.LiveSnapshot) {
	for _, c := range core.RunCounters() {
		name := prefix + "_" + c.Family
		get := func() int64 { s := snap(); return c.Value(&s) }
		if c.Unit == core.Nanoseconds {
			reg.CounterFloatFunc(name, c.Help, func() float64 { return float64(get()) * 1e-9 })
		} else {
			reg.CounterFunc(name, c.Help, get)
		}
	}
}

// RegisterLiveHistograms exposes the per-fault distribution histograms
// read from source at scrape time (e.g. a LiveStats' Metrics method, or
// the server's latest-run accessor). The histograms are scraped mid-run
// directly from the concurrency-safe core collectors; while source
// returns nil every series reads zero.
func RegisterLiveHistograms(reg *metrics.Registry, prefix string, source func() *core.RunMetrics) {
	hist := func(name, help string, scale float64, pick func(*core.RunMetrics) *metrics.Histogram) {
		reg.HistogramFuncExemplars(prefix+"_"+name, help, scale,
			func() metrics.Snapshot {
				if m := source(); m != nil {
					return pick(m).Snapshot()
				}
				return metrics.Snapshot{}
			},
			func() []*metrics.Exemplar {
				if m := source(); m != nil {
					return pick(m).Exemplars()
				}
				return nil
			})
	}
	hist("pairs_per_fault", "Candidate pairs collected per fault.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.PairsPerFault })
	hist("expansions_per_fault", "Phase-2 expansions per fault.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.ExpansionsPerFault })
	hist("sequences_at_stop", "State sequences when expansion stopped.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.SequencesAtStop })
	hist("resim_lanes_per_pass", "Sequences packed per bit-parallel resimulation pass.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.ResimLanesPerPass })
	hist("events_per_frame", "Node value changes per event-driven sparse frame.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.EventsPerFrame })
	hist("gates_visited_per_frame", "Gate evaluations per event-driven sparse frame.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.GatesVisitedPerFrame })
	hist("fault_seconds", "Per-fault wall time.", 1e-9,
		func(m *core.RunMetrics) *metrics.Histogram { return m.FaultTimeNS })
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
