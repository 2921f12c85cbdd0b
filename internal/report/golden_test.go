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
	res := &core.Result{Circuit: "synthetic", Total: 101, Tally: core.Tally{
		FaultsDone: 101, Conv: 52, MOT: 23, PrunedConditionC: 4, Identified: 5, MOTFaults: 32,
		Pairs: 707, Expansions: 606, Sequences: 808, CtrDet: 41, CtrConf: 42, CtrExtra: 43,
	}}
	fillStages(reflect.ValueOf(&res.Stages).Elem())
	hist := func(vs ...int64) *metrics.Histogram {
		h := metrics.NewHistogram(metrics.ExpBounds(1, 4, 4)...)
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	res.Metrics = &core.RunMetrics{
		core.PairsPerFault:        hist(1, 2),
		core.ExpansionsPerFault:   hist(3),
		core.SequencesAtStop:      hist(4, 5, 6),
		core.FaultTimeNS:          hist(70, 80),
		core.ResimLanesPerPass:    hist(9),
		core.EventsPerFrame:       hist(10, 300),
		core.GatesVisitedPerFrame: hist(12, 13),
	}
	return res
}

// liveValues gives every counter of a synthetic core.LiveSnapshot a
// distinct value, keyed by the field's name with nested structs
// flattened, so a counter keeps its value whichever struct of
// LiveSnapshot holds it.
var liveValues = map[string]int64{
	"RunsStarted":          3,
	"RunsDone":             2,
	"FaultsTotal":          401,
	"FaultsDone":           399,
	"Conv":                 211,
	"MOT":                  47,
	"PrunedConditionC":     58,
	"Identified":           19,
	"CtrDet":               61,
	"CtrConf":              67,
	"CtrExtra":             71,
	"PrescreenSavedFrames": 83,
	"PrescreenPasses":      5,
	"PrescreenDropped":     187,
	"PrescreenPrunedC":     41,
	"PrescreenFrames":      1201,
	"PrescreenGateEvals":   90001,
	"MOTFaults":            171,
	"Pairs":                6007,
	"Expansions":           313,
	"Sequences":            719,
	"ImplyCalls":           12011,
	"ImplyLaneEvals":       340013,
	"ImplyMemoHits":        4409,
	"ImplyNS":              1234567890,
	"ResimVectorPasses":    233,
	"ResimVectorFrames":    5021,
	"ResimGateEvals":       77017,
	"Step0NS":              2345678901,
	"CollectNS":            3456789012,
	"ExpandNS":             456789013,
	"ResimNS":              567890124,
	"TotalNS":              7890123456,
	"EventFrames":          8803,
	"EventGateEvals":       91019,
	"Events":               23029,
	"ResimRetriesSkipped":  37,
}

// fillLive sets the int64 fields of v (a struct) from liveValues,
// failing on a field the map does not name.
func fillLive(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() == reflect.Struct {
			fillLive(t, f)
			continue
		}
		val, ok := liveValues[name]
		if !ok {
			t.Fatalf("liveValues names no value for LiveSnapshot field %s", name)
		}
		f.SetInt(val)
	}
}

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
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestRunReportGolden pins the -json run report of a synthetic result:
// every key, its order and the field it is read from.
func TestRunReportGolden(t *testing.T) {
	rep := NewRunReport(syntheticResult(), "proposed", 64, 4, 987654321*time.Nanosecond)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runreport.json", data)
}

// TestFormatRunStatsGolden pins the text stage breakdown, counter and
// histogram lines of a synthetic result.
func TestFormatRunStatsGolden(t *testing.T) {
	res := syntheticResult()
	// Fault times long enough to render as distinct durations.
	ft := metrics.NewHistogram(metrics.ExpBounds(1024, 4, 14)...)
	ft.Observe(70_000)
	ft.Observe(3_500_000)
	res.Metrics[core.FaultTimeNS] = ft
	checkGolden(t, "runstats.txt", []byte(FormatRunStats(res)))
}

// TestFormatLiveSnapshotGolden pins the text rendering of a synthetic
// live snapshot: every line and the field each number is read from.
func TestFormatLiveSnapshotGolden(t *testing.T) {
	var s core.LiveSnapshot
	fillLive(t, reflect.ValueOf(&s).Elem())
	checkGolden(t, "live_snapshot.txt", []byte(FormatLiveSnapshot(s)))
}
