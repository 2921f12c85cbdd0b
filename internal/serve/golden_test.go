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

// syntheticSnapshot sets the k-th int64 of a LiveSnapshot, in field
// order and nested structs included, to k*1000003: every counter holds
// a distinct value, and the nanosecond ones scale to seconds with
// digits to spare, so a dropped, swapped, reordered or misscaled
// counter shows in the golden outputs.
func syntheticSnapshot() core.LiveSnapshot {
	var s core.LiveSnapshot
	k := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int64:
				k++
				f.SetInt(k * 1000003)
			}
		}
	}
	fill(reflect.ValueOf(&s).Elem())
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
