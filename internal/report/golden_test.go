package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// stageValues gives every counter of a synthetic core.Stages a distinct
// value, keyed by the field's name with its unit suffix ("Time" or
// "NS") dropped and nested structs flattened: a counter keeps its value
// whichever struct of Stages holds it and whether it is a
// time.Duration or an int64 of nanoseconds. Fields named nowhere here
// stay 0, as FullFrames does in every run (a faulty frame always runs
// on the event-driven evaluator).
var stageValues = map[string]int64{
	"PrescreenPasses":      11,
	"PrescreenDropped":     12,
	"PrescreenPrunedC":     13,
	"PrescreenFrames":      14,
	"PrescreenSavedFrames": 15,
	"PrescreenGateEvals":   16,
	"Prescreen":            1700000017,
	"Compile":              1800000018,
	"MOT":                  1900000019,
	"Step0":                2000000020,
	"Collect":              2100000021,
	"Imply":                2200000022,
	"Expand":               2300000023,
	"Resim":                2400000024,
	"Total":                2500000025,
	"ImplyCalls":           26,
	"ImplyLaneEvals":       27,
	"ImplyMemoHits":        28,
	"ResimVectorPasses":    29,
	"ResimVectorFrames":    30,
	"ResimGateEvals":       31,
	"MOTFaults":            32,
	"EventFrames":          33,
	"EventGateEvals":       34,
	"Events":               35,
	"ResimRetriesSkipped":  36,
}

// fillStages sets the integer fields of v (a struct) from stageValues.
func fillStages(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			fillStages(f)
		case reflect.Int, reflect.Int64:
			name = strings.TrimSuffix(strings.TrimSuffix(name, "Time"), "NS")
			f.SetInt(stageValues[name])
		}
	}
}

// syntheticResult is a core.Result whose every reported field holds a
// distinct value, histograms included.
func syntheticResult() *core.Result {
	res := &core.Result{
		Circuit: "synthetic", Total: 101, Conv: 52, MOT: 23, PrunedConditionC: 4,
		Identified: 5, Expansions: 606, Pairs: 707, Sequences: 808,
	}
	fillStages(reflect.ValueOf(&res.Stages).Elem())
	hist := func(vs ...int64) *metrics.Histogram {
		h := metrics.NewHistogram(metrics.ExpBounds(1, 4, 4)...)
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	res.Metrics = &core.RunMetrics{
		PairsPerFault:        hist(1, 2),
		ExpansionsPerFault:   hist(3),
		SequencesAtStop:      hist(4, 5, 6),
		FaultTimeNS:          hist(70, 80),
		ResimLanesPerPass:    hist(9),
		EventsPerFrame:       hist(10, 300),
		GatesVisitedPerFrame: hist(12, 13),
	}
	return res
}

// TestRunReportGolden pins the -json run report of a synthetic result:
// every key, its order and the field it is read from.
func TestRunReportGolden(t *testing.T) {
	rep := NewRunReport(syntheticResult(), "proposed", 64, 4, 987654321*time.Nanosecond)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "runreport.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("run report differs from %s:\n--- got\n%s\n--- want\n%s", path, data, want)
	}
}
