package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/profiling"
)

// opts builds the baseline test options: s27, a 16-pattern random
// sequence, serial execution.
func opts() runOptions {
	return runOptions{
		builtin:   "s27",
		randomLen: 16,
		seed:      7,
		method:    "proposed",
		nstates:   64,
		workers:   1,
		prescreen: true,
		metrics:   true,
	}
}

func TestRunMethods(t *testing.T) {
	for _, method := range []string{"conventional", "lowcomplexity", "baseline", "proposed"} {
		for _, prescreen := range []bool{true, false} {
			o := opts()
			o.method = method
			o.prescreen = prescreen
			o.out = &bytes.Buffer{}
			if err := run(o); err != nil {
				t.Errorf("method %s (prescreen=%v): %v", method, prescreen, err)
			}
		}
	}
}

// TestRunMetricsAddr runs with the telemetry sidecar enabled; the run
// must succeed and shut the sidecar down cleanly. (The exposition
// itself is covered by the serve package tests.)
func TestRunMetricsAddr(t *testing.T) {
	o := opts()
	o.metricsAddr = "127.0.0.1:0"
	o.out = &bytes.Buffer{}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// A bad address must fail before simulating anything.
	o = opts()
	o.metricsAddr = "127.0.0.1:-1"
	o.out = &bytes.Buffer{}
	if run(o) == nil {
		t.Error("invalid metrics address accepted")
	}
}

func TestRunRejects(t *testing.T) {
	mod := func(f func(*runOptions)) runOptions {
		o := opts()
		o.randomLen = 8
		o.seed = 1
		o.out = &bytes.Buffer{}
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    runOptions
	}{
		{"noCircuit", mod(func(o *runOptions) { o.builtin = "" })},
		{"bothCircuits", mod(func(o *runOptions) { o.benchPath = "x.bench" })},
		{"unknownCircuit", mod(func(o *runOptions) { o.builtin = "bogus" })},
		{"noSequence", mod(func(o *runOptions) { o.randomLen = 0 })},
		{"badMethod", mod(func(o *runOptions) { o.method = "frob" })},
		{"zeroWorkers", mod(func(o *runOptions) { o.workers = 0 })},
		{"negativeWorkers", mod(func(o *runOptions) { o.workers = -4 })},
		{"timingsWithoutMetrics", mod(func(o *runOptions) { o.metrics = false; o.traceTimings = true })},
	}
	for _, tc := range cases {
		if run(tc.o) == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestRunWithVectorsAndList(t *testing.T) {
	dir := t.TempDir()
	vec := filepath.Join(dir, "t.vec")
	if err := os.WriteFile(vec, []byte("1011\n0110\n1111\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.vecPath = vec
	o.randomLen = 0
	o.seed = 1
	o.full = true
	o.list = true
	o.out = &bytes.Buffer{}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatsOnly(t *testing.T) {
	o := opts()
	o.randomLen = 0
	o.stats = true
	o.out = &bytes.Buffer{}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedy(t *testing.T) {
	o := opts()
	o.greedy = true
	o.seed = 3
	o.method = "baseline"
	o.nstates = 16
	o.out = &bytes.Buffer{}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.bench")
	c, err := motsim.BuiltinCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := motsim.WriteBench(f, c); err != nil {
		t.Fatal(err)
	}
	f.Close()
	o := opts()
	o.builtin = ""
	o.benchPath = path
	o.randomLen = 8
	o.seed = 1
	o.method = "conventional"
	o.out = &bytes.Buffer{}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunJSON checks the -json report: valid JSON with the per-stage
// breakdown and histograms for an MOT method, and the compact schema for
// the conventional fast path.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	o := opts()
	o.jsonOut = true
	o.out = &buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"circuit", "stages", "histograms", "coverage"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}

	buf.Reset()
	o.method = "conventional"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	rep = nil
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("conventional -json output not valid JSON: %v", err)
	}
	if rep["method"] != "conventional" {
		t.Errorf("conventional report method = %v", rep["method"])
	}
}

// TestRunTraceAndProfiles drives a run with the JSONL trace and all
// three profilers enabled, checking every artifact lands on disk.
func TestRunTraceAndProfiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	o := opts()
	o.workers = 4
	o.tracePath = filepath.Join(dir, "trace.jsonl")
	o.jsonOut = true
	o.prof = profiling.Options{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		ExecTrace:  filepath.Join(dir, "exec.out"),
	}
	o.out = &buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	c, _ := motsim.BuiltinCircuit("s27")
	if want := len(motsim.CollapsedFaults(c)); len(lines) != want {
		t.Errorf("trace has %d lines, want %d", len(lines), want)
	}
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not valid JSON: %v\n%s", err, line)
		}
	}
	for _, p := range []string{o.prof.CPUProfile, o.prof.MemProfile, o.prof.ExecTrace} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestRunSpanTrace runs with -span-trace at full sampling and checks
// the output validates as Chrome trace-event JSON with the expected
// span kinds.
func TestRunSpanTrace(t *testing.T) {
	var buf bytes.Buffer
	o := opts()
	o.workers = 2
	o.spanTracePath = filepath.Join(t.TempDir(), "spans.trace.json")
	o.spanSample = 1
	o.out = &buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.spanTracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span trace is not valid Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"run s27", "prescreen", "mot", "fault"} {
		if !names[want] {
			t.Errorf("span trace missing %q events", want)
		}
	}

	// An out-of-range rate is rejected by config validation.
	o = opts()
	o.spanTracePath = filepath.Join(t.TempDir(), "never.json")
	o.spanSample = -1
	o.out = &bytes.Buffer{}
	if err := run(o); err == nil {
		t.Error("out-of-range -span-sample accepted")
	}
}

func TestDumpVCD(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.vcd")
	if err := dumpVCD("", "s27", "", 8, 1, out, "G11/SA1"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || len(data) == 0 {
		t.Fatal("VCD not written")
	}
	if err := dumpVCD("", "s27", "", 0, 1, out, ""); err == nil {
		t.Error("VCD without sequence accepted")
	}
	if err := dumpVCD("", "s27", "", 4, 1, out, "nope/SA9"); err == nil {
		t.Error("unknown fault accepted")
	}
}
