package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/xtrace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := quantile(asc, c.p); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
	if got := mean([]float64{9, 1, 5, 3}); !near(got, 4.5) {
		t.Errorf("mean = %v, want 4.5", got)
	}
}

// A run that ends part-way through a corpus cycle must not weigh the
// input it repeated twice.
func TestBatchEndToEndWeighsEachInputOnce(t *testing.T) {
	run := func(input int, wall float64) sample {
		return sample{input: input, wall: time.Duration(wall * float64(time.Second)), alloc: uint64(wall * 1e6), counts: counts{Faults: 100}}
	}
	m := map[string]float64{}
	batchEndToEnd([]sample{run(0, 1), run(1, 3), run(0, 2)}, m)
	// Input 0 takes 1.5 s on average, input 1 3 s.
	for name, want := range map[string]float64{"faults_per_s": 200 / 4.5, "runs_per_s": 2 / 4.5, "latency_p50_ms": 2250, "alloc_mb": 2.25} {
		if !near(m[name], want) {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestSummarizeCountsTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.N != 100 || !near(d.P50, 50.5) || !near(d.P95, 95.05) || !near(d.P99, 99.01) {
		t.Fatalf("summarize = %+v", d)
	}
	if d.Beyond95 != 5 || d.Beyond99 != 1 {
		t.Errorf("samples beyond p95/p99 = %d/%d, want 5/1", d.Beyond95, d.Beyond99)
	}
	if !strings.Contains(d.String(), "n=100") {
		t.Errorf("summary %q does not state the sample count", d)
	}
}

// The reference cut points come from Python's
// statistics.quantiles(xs, n=4), which the spread check must match.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.4, 2.2, 9.7, 5.0}, [3]float64{1.3, 3.1, 7.35}},
		{[]float64{7, 1}, [3]float64{-0.5, 4, 8.5}},
	} {
		q, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range q {
			if !near(q[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSpread(t *testing.T) {
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(sp, 5.5/5.5) {
		t.Errorf("spread = %v, %v; want 1", sp, err)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread around a zero median: want an error")
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{3, 12}
	if !near(r.value(), 0.25) || r.String() != "0.25 (3 of 12)" {
		t.Errorf("ratio = %v, %q", r.value(), r)
	}
	if (ratio{5, 0}).value() != 0 {
		t.Error("ratio over an empty base must read 0")
	}
}

func TestWorse(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		want      bool
	}{
		{100, 110, "lower", false},
		{100, 110.5, "lower", true},
		{100, 90, "higher", false},
		{100, 89.5, "higher", true},
		{100, 50, "lower", false},
		{100, 200, "higher", false},
	} {
		got, err := worse(c.base, c.cur, c.better, 0.1)
		if err != nil || got != c.want {
			t.Errorf("worse(%v, %v, %s) = %v, %v; want %v", c.base, c.cur, c.better, got, err, c.want)
		}
	}
	if _, err := worse(1, 1, "sideways", 0.1); err == nil {
		t.Error("unknown direction: want an error")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	root := xtrace.Span{ID: 1, Name: "a.root", Start: 0, Dur: 100}
	spans := []xtrace.Span{
		root,
		{ID: 2, Parent: 1, Name: "b.kid", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "b.kid", Start: 20, Dur: 30}, // overlaps the first
		{ID: 4, Parent: 1, Name: "b.kid", Start: 80, Dur: 40}, // runs past the parent
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.name] = st
	}
	// Children cover [10, 50) and [80, 100) of the parent: 60 of 100.
	if r := got["a.root"]; r.self != 40 || r.total != 100 || r.n != 1 {
		t.Errorf("root self time = %+v, want self 40 of 100", r)
	}
	if k := got["b.kid"]; k.n != 3 || k.self != 90 {
		t.Errorf("kid self time = %+v, want 3 spans, self 90", k)
	}
}

func TestVmHWM(t *testing.T) {
	kb, ok := vmHWM(strings.NewReader("Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   12345 kB\n"))
	if !ok || kb != 12345 {
		t.Errorf("vmHWM = %v, %v; want 12345", kb, ok)
	}
	if _, ok := vmHWM(strings.NewReader("Name:\tx\n")); ok {
		t.Error("no VmHWM line: want ok false")
	}
}

func TestResultListsExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	line, err := result(&outcome{attempted: 2, metrics: map[string]float64{"a": 1, "b": 2}}, defs)
	if err != nil || !line.Correct || line.Metrics["b"].Unit != "ms" {
		t.Errorf("result = %+v, %v", line, err)
	}
	for _, m := range []map[string]float64{
		{"a": 1},
		{"a": 1, "b": 2, "c": 3},
		{"a": 1, "b": math.NaN()},
	} {
		if _, err := result(&outcome{attempted: 1, metrics: m}, defs); err == nil {
			t.Errorf("metrics %v: want an error", m)
		}
	}
	if line, _ := result(&outcome{attempted: 2, failed: 1, metrics: map[string]float64{"a": 1, "b": 2}}, defs); line.Correct {
		t.Error("a run with a failed operation must not be correct")
	}
}

// BENCHMARK.json and the program must name the same workloads and the
// same metrics with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []boundDef              `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, program %v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
}

func TestSpreadCheck(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}`), 0o644)
	write := func(name string, rates, setups []float64) string {
		var b bytes.Buffer
		b.WriteString("a table line that is not JSON\n")
		for i := range rates {
			line, _ := json.Marshal(resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"rate": {rates[i], "1/s"}, "setup_s": {setups[i], "s"}}})
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		os.WriteFile(p, b.Bytes(), 0o644)
		return p
	}
	steady := write("steady", []float64{100, 101, 99, 100, 102}, []float64{1, 3, 1, 2, 1})
	noisy := write("noisy", []float64{100, 150, 60, 100, 130}, []float64{1, 1, 1, 1, 1})
	slower := write("slower", []float64{80, 81, 79, 80, 82}, []float64{1, 1, 1, 1, 1})
	var out bytes.Buffer
	if err := spreadMain([]string{"-bench", bench, steady}, &out); err != nil {
		t.Errorf("steady runs (setup_s spread is not bounded): %v\n%s", err, &out)
	}
	if err := spreadMain([]string{"-bench", bench, noisy}, &out); err == nil {
		t.Error("noisy runs: want a spread error")
	}
	if err := spreadMain([]string{"-bench", bench, "-base", steady, slower}, &out); err == nil {
		t.Error("runs 20% slower than the base with a 10% bound: want an error")
	}
	if err := spreadMain([]string{"-bench", bench, "-base", slower, steady}, &out); err != nil {
		t.Errorf("faster runs: %v", err)
	}
}
