package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// syntheticKeys lists the JSON key of every LiveSnapshot counter in the
// order the counters joined it.
var syntheticKeys = []string{
	"runs_started", "runs_done", "faults_total", "faults_done",
	"detected_conventional", "detected_mot", "pruned_condition_c",
	"prescreen_passes", "prescreen_dropped", "prescreen_pruned_c",
	"prescreen_frames", "prescreen_gate_evals", "mot_faults", "pairs",
	"expansions", "sequences", "imply_calls", "imply_lane_evals",
	"imply_memo_hits", "imply_ns", "resim_vector_passes",
	"resim_vector_frames", "resim_gate_evals", "step0_ns", "collect_ns",
	"expand_ns", "resim_ns", "total_ns", "event_frames",
	"event_gate_evals", "events", "resim_retries_skipped", "identified",
	"ctr_det", "ctr_conf", "ctr_extra", "prescreen_saved_frames",
}

// syntheticSnapshot sets the counter of the k-th key of syntheticKeys to
// k*1000003: every counter holds a distinct value, which it keeps when
// the structs of LiveSnapshot regroup, and the nanosecond ones scale to
// seconds with digits to spare, so a dropped, swapped, reordered or
// misscaled counter shows in the golden outputs. It panics on a counter
// syntheticKeys does not list.
func syntheticSnapshot() core.LiveSnapshot {
	value := make(map[string]int64, len(syntheticKeys))
	for k, key := range syntheticKeys {
		value[key] = int64(k+1) * 1000003
	}
	var s core.LiveSnapshot
	v := reflect.ValueOf(&s).Elem()
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue
		}
		x, ok := value[f.Tag.Get("json")]
		if !ok {
			panic("syntheticKeys lacks " + f.Tag.Get("json"))
		}
		v.FieldByIndex(f.Index).SetInt(x)
	}
	return s
}

// TestLiveSnapshotJSONGolden pins the JSON of a live snapshot (the
// `live` object of GET /runs/{id}): its keys, their order and values.
func TestLiveSnapshotJSONGolden(t *testing.T) {
	data, err := json.MarshalIndent(syntheticSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "live_snapshot.json", append(data, '\n'))
}

// TestLiveCountersExpositionGolden pins what RegisterLiveCounters
// exposes for a synthetic snapshot, in both exposition formats: family
// names, order, HELP text, types and the nanoseconds-to-seconds scaling.
func TestLiveCountersExpositionGolden(t *testing.T) {
	s := syntheticSnapshot()
	reg := metrics.NewRegistry()
	RegisterLiveCounters(reg, "motserve", func() core.LiveSnapshot { return s })
	var prom, om bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "live_counters.prom", prom.Bytes())
	checkGolden(t, "live_counters.openmetrics", om.Bytes())
}
