package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable2_sg298-8         	       2	  21000000 ns/op	 2046156 B/op	    4985 allocs/op
BenchmarkTable2_sg298-8         	       2	  20500000 ns/op	 2046156 B/op	    4985 allocs/op
BenchmarkTable2_sg298-8         	       2	  22000000 ns/op	 2046156 B/op	    4985 allocs/op
BenchmarkNewThing-8             	      10	   1000000 ns/op
PASS
`

const sampleBaseline = `{
  "after": {
    "BenchmarkTable2_sg298": {"ns_per_op": [20777534, 22980216, 19756759]},
    "BenchmarkTable2_sg641": {"ns_per_op": [322921497, 307476224, 297388467]}
  }
}`

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	runs, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := runs["BenchmarkTable2_sg298"]; len(got) != 3 {
		t.Fatalf("sg298 samples = %v, want 3", got)
	}
	if got := runs["BenchmarkNewThing"]; len(got) != 1 || got[0] != 1000000 {
		t.Fatalf("NewThing samples = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

// TestRunWithinThreshold: sample medians 21.0ms vs baseline 20.78ms is
// ~1% slower — inside the default 10% threshold.
func TestRunWithinThreshold(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(&out, strings.NewReader(sampleBench), writeBaseline(t, sampleBaseline), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("flagged a regression within threshold:\n%s", out.String())
	}
	text := out.String()
	if !strings.Contains(text, "no regressions") {
		t.Errorf("missing pass line:\n%s", text)
	}
	if !strings.Contains(text, "not in this run") {
		t.Errorf("missing-benchmark warning absent:\n%s", text)
	}
	if !strings.Contains(text, "no baseline") {
		t.Errorf("new-benchmark note absent:\n%s", text)
	}
}

// TestRunNewBenchmarksSorted: benchmarks absent from the baseline are
// listed in name order, so repeated runs produce identical reports.
func TestRunNewBenchmarksSorted(t *testing.T) {
	bench := sampleBench + "BenchmarkAardvark-8             	      10	   2000000 ns/op\n"
	var out bytes.Buffer
	if _, err := run(&out, strings.NewReader(bench), writeBaseline(t, sampleBaseline), 10); err != nil {
		t.Fatal(err)
	}
	a := strings.Index(out.String(), "BenchmarkAardvark")
	b := strings.Index(out.String(), "BenchmarkNewThing")
	if a < 0 || b < 0 || a > b {
		t.Errorf("new benchmarks not sorted (Aardvark@%d, NewThing@%d):\n%s", a, b, out.String())
	}
}

// TestRunFlagsRegression: with a 1% threshold the same sample counts as
// a regression and run returns ok=false.
func TestRunFlagsRegression(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(&out, strings.NewReader(sampleBench), writeBaseline(t, sampleBaseline), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("regression not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("REGRESSION marker missing:\n%s", out.String())
	}
}

// TestCompareJSONReport: the -json artifact carries the same verdict
// and rows as the text table, absent sides omitted rather than zeroed.
func TestCompareJSONReport(t *testing.T) {
	rep, err := compare(strings.NewReader(sampleBench), writeBaseline(t, sampleBaseline), 10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round diffReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if !round.OK || round.Threshold != 10 {
		t.Errorf("report verdict = ok:%v threshold:%v", round.OK, round.Threshold)
	}
	rows := make(map[string]benchRow)
	for _, r := range round.Rows {
		rows[r.Name] = r
	}
	sg := rows["BenchmarkTable2_sg298"]
	if sg.BaselineNs == nil || sg.CurrentNs == nil || sg.DeltaPct == nil || sg.Regression {
		t.Errorf("sg298 row incomplete: %+v", sg)
	}
	if miss := rows["BenchmarkTable2_sg641"]; miss.CurrentNs != nil || miss.BaselineNs == nil {
		t.Errorf("missing-from-run row wrong: %+v", miss)
	}
	if fresh := rows["BenchmarkNewThing"]; fresh.BaselineNs != nil || fresh.CurrentNs == nil {
		t.Errorf("no-baseline row wrong: %+v", fresh)
	}
	if strings.Contains(string(data), `"baseline_ns_per_op":0`) {
		t.Errorf("absent side marshaled as zero:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(&out, strings.NewReader(sampleBench), filepath.Join(t.TempDir(), "missing.json"), 10); err == nil {
		t.Error("missing baseline accepted")
	}
	if _, err := run(&out, strings.NewReader(sampleBench), writeBaseline(t, `{"after":{}}`), 10); err == nil {
		t.Error("empty baseline accepted")
	}
	if _, err := run(&out, strings.NewReader("PASS\n"), writeBaseline(t, sampleBaseline), 10); err == nil {
		t.Error("benchless input accepted")
	}
}

// TestNewestBaselineByPRNumber checks the default baseline pick: the
// highest PR number wins, numerically (PR17 after PR9) and whatever the
// files' modification times say; other names are ignored.
func TestNewestBaselineByPRNumber(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR9.json", "BENCH_PR17.json", "BENCH_PR2.json", "BENCH_notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(sampleBaseline), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR17.json" {
		t.Fatalf("newestBaseline = %s, want BENCH_PR17.json", got)
	}
	if _, err := newestBaseline(t.TempDir()); err == nil {
		t.Error("empty directory yielded a baseline")
	}
}
