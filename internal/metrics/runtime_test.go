package metrics

import (
	"runtime"
	rtm "runtime/metrics"
	"strings"
	"testing"
)

func TestRegisterRuntimeSeries(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r, "mot")
	// Force at least one GC cycle so the pause histogram and cumulative
	// counters are non-trivial.
	runtime.GC()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mot_go_goroutines gauge",
		"# TYPE mot_go_heap_bytes gauge",
		"# TYPE mot_go_stack_bytes gauge",
		"# TYPE mot_go_alloc_bytes_total counter",
		"# TYPE mot_go_gc_cycles_total counter",
		"# TYPE mot_go_gc_pause_seconds histogram",
		"# TYPE mot_go_sched_latency_seconds histogram",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("runtime exposition missing %q", want)
		}
	}
	series := parseExposition(t, out)
	if v := series["mot_go_goroutines"]; v < 1 {
		t.Errorf("mot_go_goroutines = %v, want >= 1", v)
	}
	if v := series["mot_go_heap_bytes"]; v <= 0 {
		t.Errorf("mot_go_heap_bytes = %v, want > 0", v)
	}
	if v := series["mot_go_gc_cycles_total"]; v < 1 {
		t.Errorf("mot_go_gc_cycles_total = %v, want >= 1 after runtime.GC", v)
	}
	checkHistogramConsistency(t, out, "mot_go_gc_pause_seconds")
	checkHistogramConsistency(t, out, "mot_go_sched_latency_seconds")
}

func TestRuntimeSnapshotBoundsIncrease(t *testing.T) {
	runtime.GC()
	samples := []rtm.Sample{{Name: "/sched/pauses/total/gc:seconds"}, {Name: "/sched/latencies:seconds"}}
	rtm.Read(samples)
	for _, sample := range samples {
		name, s := sample.Name, snapshotOf(sample.Value)
		if len(s.Buckets) == 0 {
			t.Fatalf("%s: empty snapshot", name)
		}
		for i := 1; i < len(s.Buckets); i++ {
			if s.Buckets[i].Le <= s.Buckets[i-1].Le {
				t.Fatalf("%s: bounds not strictly increasing at %d: %d <= %d",
					name, i, s.Buckets[i].Le, s.Buckets[i-1].Le)
			}
		}
		var total int64
		for _, b := range s.Buckets {
			total += b.Count
		}
		if total != s.Count {
			t.Errorf("%s: bucket total %d != count %d", name, total, s.Count)
		}
		if s.Count > 0 && s.Min > s.Max {
			t.Errorf("%s: min %d > max %d", name, s.Min, s.Max)
		}
	}
}
