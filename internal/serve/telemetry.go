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

// liveCounters maps every monotonic LiveSnapshot field to a Prometheus
// counter name (without prefix) and help string. Times are exposed in
// seconds; the *_ns fields carry nanoseconds and are scaled at
// registration.
var liveCounters = []struct {
	name, help string
	seconds    bool
	get        func(core.LiveSnapshot) int64
}{
	{"runs_started_total", "Whole-list runs started.", false,
		func(s core.LiveSnapshot) int64 { return s.RunsStarted }},
	{"runs_done_total", "Whole-list runs completed (including failed and canceled).", false,
		func(s core.LiveSnapshot) int64 { return s.RunsDone }},
	{"faults_total", "Faults submitted across all runs.", false,
		func(s core.LiveSnapshot) int64 { return s.FaultsTotal }},
	{"faults_done_total", "Faults classified so far.", false,
		func(s core.LiveSnapshot) int64 { return s.FaultsDone }},
	{"detected_conventional_total", "Faults detected by conventional simulation.", false,
		func(s core.LiveSnapshot) int64 { return s.Conv }},
	{"detected_mot_total", "Faults detected by the MOT procedure beyond conventional.", false,
		func(s core.LiveSnapshot) int64 { return s.MOT }},
	{"pruned_condition_c_total", "Faults pruned by necessary condition (C).", false,
		func(s core.LiveSnapshot) int64 { return s.PrunedConditionC }},
	{"prescreen_passes_total", "Bit-parallel prescreen batches simulated.", false,
		func(s core.LiveSnapshot) int64 { return s.PrescreenPasses }},
	{"prescreen_dropped_total", "Faults classified directly by the prescreen.", false,
		func(s core.LiveSnapshot) int64 { return s.PrescreenDropped }},
	{"prescreen_pruned_c_total", "Undetected faults the prescreen lanes pruned by condition (C).", false,
		func(s core.LiveSnapshot) int64 { return s.PrescreenPrunedC }},
	{"prescreen_frames_total", "Time frames simulated by the bit-parallel prescreen.", false,
		func(s core.LiveSnapshot) int64 { return s.PrescreenFrames }},
	{"prescreen_gate_evals_total", "Gates evaluated by the bit-parallel prescreen.", false,
		func(s core.LiveSnapshot) int64 { return s.PrescreenGateEvals }},
	{"mot_faults_total", "Faults that entered the per-fault MOT pipeline.", false,
		func(s core.LiveSnapshot) int64 { return s.MOTFaults }},
	{"pairs_total", "Candidate (time unit, state variable) pairs collected.", false,
		func(s core.LiveSnapshot) int64 { return s.Pairs }},
	{"expansions_total", "Sequence-duplicating state expansions applied.", false,
		func(s core.LiveSnapshot) int64 { return s.Expansions }},
	{"sequences_total", "State sequences at expansion stop, summed over faults.", false,
		func(s core.LiveSnapshot) int64 { return s.Sequences }},
	{"imply_calls_total", "In-frame implication runs.", false,
		func(s core.LiveSnapshot) int64 { return s.ImplyCalls }},
	{"imply_lane_evals_total", "Gates evaluated by lane implication passes.", false,
		func(s core.LiveSnapshot) int64 { return s.ImplyLaneEvals }},
	{"resim_vector_passes_total", "Bit-parallel resimulation vector passes.", false,
		func(s core.LiveSnapshot) int64 { return s.ResimVectorPasses }},
	{"resim_vector_frames_total", "Time frames evaluated by bit-parallel resimulation.", false,
		func(s core.LiveSnapshot) int64 { return s.ResimVectorFrames }},
	{"resim_gate_evals_total", "Gates evaluated by bit-parallel resimulation.", false,
		func(s core.LiveSnapshot) int64 { return s.ResimGateEvals }},
	{"full_frames_total", "Full-pass frames simulated by the serial engine.", false,
		func(s core.LiveSnapshot) int64 { return s.FullFrames }},
	{"event_frames_total", "Sparse frames simulated by the event-driven evaluator.", false,
		func(s core.LiveSnapshot) int64 { return s.EventFrames }},
	{"event_gate_evals_total", "Gate evaluations inside event-driven frames.", false,
		func(s core.LiveSnapshot) int64 { return s.EventGateEvals }},
	{"events_total", "Node value changes propagated by the sparse evaluators.", false,
		func(s core.LiveSnapshot) int64 { return s.Events }},
	{"stage_step0_seconds_total", "CPU time in step 0 (serial resim + condition C).", true,
		func(s core.LiveSnapshot) int64 { return s.Step0NS }},
	{"stage_collect_seconds_total", "CPU time in pair collection (Section 3.1).", true,
		func(s core.LiveSnapshot) int64 { return s.CollectNS }},
	{"stage_imply_seconds_total", "CPU time in implications (subset of collect).", true,
		func(s core.LiveSnapshot) int64 { return s.ImplyNS }},
	{"stage_expand_seconds_total", "CPU time in state expansion (Procedure 2).", true,
		func(s core.LiveSnapshot) int64 { return s.ExpandNS }},
	{"stage_resim_seconds_total", "CPU time in resimulation (Section 3.4).", true,
		func(s core.LiveSnapshot) int64 { return s.ResimNS }},
	{"stage_mot_seconds_total", "Total CPU time in the per-fault MOT pipeline.", true,
		func(s core.LiveSnapshot) int64 { return s.TotalNS }},
}

// RegisterLiveCounters registers one Prometheus counter per monotonic
// LiveSnapshot field under prefix (e.g. "motserve"). snap is called per
// scrape; it must be safe for concurrent use and each returned field
// must be non-decreasing between calls — core.LiveStats.Snapshot and
// sums of such snapshots over a grow-only run set both qualify.
func RegisterLiveCounters(reg *metrics.Registry, prefix string, snap func() core.LiveSnapshot) {
	for _, m := range liveCounters {
		m := m
		name := prefix + "_" + m.name
		if m.seconds {
			reg.CounterFloatFunc(name, m.help, func() float64 {
				return float64(m.get(snap())) * 1e-9
			})
		} else {
			reg.CounterFunc(name, m.help, func() int64 { return m.get(snap()) })
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
	hist("cone_gates_per_fault", "Active-cone sizes of pipeline faults.", 1,
		func(m *core.RunMetrics) *metrics.Histogram { return m.ConeGatesPerFault })
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
