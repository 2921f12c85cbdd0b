package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

const watchExposition = `# HELP motserve_runs_started_total Whole-list runs started.
# TYPE motserve_runs_started_total counter
motserve_runs_started_total 3
motserve_runs_done_total 2
motserve_runs_active 1
motserve_runs_queued 0
motserve_faults_total 2048
motserve_faults_done_total 1024
motserve_detected_conventional_total 800
motserve_detected_mot_total 23
motserve_pruned_condition_c_total 77
motserve_prescreen_dropped_total 100
motserve_stage_step0_seconds_total 1.25
motserve_stage_collect_seconds_total 3.5
motserve_stage_imply_seconds_total 1
motserve_stage_expand_seconds_total 0.75
motserve_stage_resim_seconds_total 0.5
motserve_stage_mot_seconds_total 6
motserve_events_total 1200000
motserve_event_frames_total 300000
motserve_resim_vector_passes_total 12000
motserve_imply_calls_total 450000
motserve_cache_hits_total 12
motserve_cache_misses_total 3
motserve_cache_evictions_total 0
motserve_cache_bytes_total 47841280
motserve_http_run_create_seconds_p95_1m 0.0012
motserve_http_run_get_seconds_p95_1m 0.0003
motserve_http_run_list_seconds_p95_1m 0.0004
motserve_http_metrics_seconds_p95_1m 0.002
motserve_run_seconds_p95_1m 4.5
motserve_run_seconds_rate1m 0.03
motserve_run_cpu_seconds_total 12.25
motserve_run_alloc_bytes_total 1288490188
motserve_go_goroutines 42
motserve_go_heap_bytes 129394688
motserve_go_stack_bytes 2202009
motserve_go_gc_cycles_total 15
motserve_go_alloc_bytes_total 2576980377
motserve_fault_seconds_bucket{le="0.001"} 900 # {fault="g17/saf0"} 0.0004
motserve_fault_seconds_bucket{le="+Inf"} 1024
motserve_fault_seconds_sum 3.5
motserve_fault_seconds_count 1024
# EOF
`

func TestParseMetrics(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(watchExposition))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"motserve_faults_done_total":                1024,
		"motserve_go_goroutines":                    42,
		"motserve_run_seconds_p95_1m":               4.5,
		`motserve_fault_seconds_bucket{le="0.001"}`: 900,
		`motserve_fault_seconds_bucket{le="+Inf"}`:  1024,
		"motserve_fault_seconds_count":              1024,
	} {
		if got := m[key]; got != want {
			t.Errorf("sample %s = %v, want %v", key, got, want)
		}
	}
	if _, err := ParseMetrics(strings.NewReader("lonely_name\n")); err == nil {
		t.Error("sample without a value parsed")
	}
	if _, err := ParseMetrics(strings.NewReader("bad_value x\n")); err == nil {
		t.Error("non-numeric sample parsed")
	}
}

func TestFormatWatchFrame(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(watchExposition))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 8, 7, 12, 0, 10, 0, time.UTC)
	prevMetrics := make(map[string]float64, len(m))
	for k, v := range m {
		prevMetrics[k] = v
	}
	prevMetrics["motserve_faults_done_total"] = 924 // 100 faults in 10s
	prev := WatchSnapshot{At: at.Add(-10 * time.Second), Metrics: prevMetrics}
	cur := WatchSnapshot{At: at, Metrics: m}

	frame := FormatWatch("motserve", prev, cur, nil)
	for _, want := range []string{
		"motserve dashboard  2026-08-07 12:00:10",
		"runs: 3 started, 2 done, 1 active, 0 queued",
		"faults: 1024/2048 done (50.0%), 10.0/s",
		"conv 800  mot 23  pruned-C 77",
		"stage cpu: step0 1.25s  collect 3.5s (imply 1s)  expand 750ms  resim 500ms  mot-total 6s",
		"events 1.2M",
		"imply calls 450.0k",
		"cache: 12 hits, 3 misses, 0 evictions, 45.6 MiB resident",
		"http p95 1m: create 1ms  get 0s  list 0s  metrics 2ms",
		"run p95 1m 4.5s, 0.03 runs/s",
		"run resources: cpu 12.25s  alloc 1.2 GiB",
		"go: 42 goroutines  heap 123.4 MiB  stacks 2.1 MiB  gc 15 cycles",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	// The live section renders only when a run is being followed.
	if strings.Contains(frame, "active run:") {
		t.Error("frame shows an active run without one")
	}
	live := &core.LiveSnapshot{RunsStarted: 1, FaultsTotal: 2048, Tally: core.Tally{FaultsDone: 1024, Conv: 800}}
	withLive := FormatWatch("motserve", prev, cur, live)
	if !strings.Contains(withLive, "active run:") || !strings.Contains(withLive, "1024/2048 faults") {
		t.Errorf("frame with live snapshot missing the active-run section:\n%s", withLive)
	}

	// A first frame (empty prev) renders with zero rates, not garbage.
	first := FormatWatch("motserve", WatchSnapshot{}, cur, nil)
	if !strings.Contains(first, "faults: 1024/2048 done (50.0%), 0.0/s") {
		t.Errorf("first frame rate not zero:\n%s", first)
	}

	// Sidecar expositions (no cache/http/run-attribution series) skip
	// those lines entirely.
	side := make(map[string]float64)
	for k, v := range m {
		if !strings.Contains(k, "cache") && !strings.Contains(k, "http") && !strings.Contains(k, "_run_") {
			side[k] = v
		}
	}
	sideFrame := FormatWatch("motserve", WatchSnapshot{}, WatchSnapshot{At: at, Metrics: side}, nil)
	for _, banned := range []string{"cache:", "http p95", "run resources:"} {
		if strings.Contains(sideFrame, banned) {
			t.Errorf("sidecar frame renders server-only section %q:\n%s", banned, sideFrame)
		}
	}
}

func TestHumanUnits(t *testing.T) {
	for v, want := range map[float64]string{
		512:           "512 B",
		2048:          "2.0 KiB",
		47841280:      "45.6 MiB",
		1288490188.8:  "1.2 GiB",
		1099511627776: "1.0 TiB",
	} {
		if got := humanBytes(v); got != want {
			t.Errorf("humanBytes(%v) = %q, want %q", v, got, want)
		}
	}
	for v, want := range map[float64]string{
		999:     "999",
		1200:    "1.2k",
		1200000: "1.2M",
		2.5e9:   "2.5G",
	} {
		if got := humanCount(v); got != want {
			t.Errorf("humanCount(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRatePerSec(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	prev := WatchSnapshot{At: at, Metrics: map[string]float64{"x": 100}}
	cur := WatchSnapshot{At: at.Add(4 * time.Second), Metrics: map[string]float64{"x": 140}}
	if r := ratePerSec(prev, cur, "x"); r != 10 {
		t.Errorf("rate = %v, want 10", r)
	}
	// Counter reset (restarted exporter) clamps to zero.
	cur.Metrics["x"] = 50
	if r := ratePerSec(prev, cur, "x"); r != 0 {
		t.Errorf("rate after reset = %v, want 0", r)
	}
	if r := ratePerSec(WatchSnapshot{}, cur, "x"); r != 0 {
		t.Errorf("rate with empty prev = %v, want 0", r)
	}
}
