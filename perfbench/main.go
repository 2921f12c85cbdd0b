// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of internal/core, internal/bitsim and
// internal/serve for a fixed number of host seconds, checks every
// simulated count, prints a table of the metrics, and ends its standard
// output with one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"faults_per_s": {"value": 3712.5, "unit": "faults/s"}, ...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload mot-resim --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run is split into an untraced and a traced half; the traced half
// records spans around the benchmark's own calls into each layer, prints
// a self-time table, writes the spans as JSONL under .bench_build/spans, and
// the metrics are the per-layer ones, including the tracing overhead
// (traced minus untraced). All times are host time. The workloads use
// synthetic stand-in circuits, so correctness is exact agreement of the
// simulated counts, not an error figure against the paper.
//
// A run exits 1 when any operation failed or any count disagreed with
// its check. The spread subcommand summarizes repeated runs:
//
//	perfbench spread -bench BENCHMARK.json [-base OLD.jsonl] NEW.jsonl
//
// Each file holds the last output lines of runs of one workload. It
// prints every end-to-end metric's median and quartile spread, and fails
// when a spread exceeds the metric's bound or, with -base, when the new
// median is worse than the old by more than the bound. The files in
// perfbench/baseline hold ten runs per workload (seeds 21 to 30) of the
// code the benchmark was defined on, measured on a 2-vCPU VM.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"faults_per_s", "faults/s"},
	{"setup_s", "s"},
	{"runs_per_s", "runs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_mb", "MB/op"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced run.
var perLayer = []metricDef{
	{"circuits.generate_s", "s"},
	{"fault.collapse_s", "s"},
	{"cir.compile_s", "s"},
	{"seqsim.good_sim_s", "s"},
	{"bitsim.prescreen_s", "s"},
	{"bitsim.passes", "count"},
	{"bitsim.frames", "count"},
	{"bitsim.saved_frames", "count"},
	{"bitsim.drop_ratio", "ratio"},
	{"seqsim.step0_s", "s"},
	{"seqsim.event_frames", "count"},
	{"seqsim.event_gate_evals", "count"},
	{"seqsim.gate_evals_per_frame", "count"},
	{"implic.imply_s", "s"},
	{"implic.imply_calls", "count"},
	{"core.pairs", "count"},
	{"core.fault_p50_us", "us"},
	{"core.fault_p99_us", "us"},
	{"core.fault_samples", "count"},
	{"core.collect_s", "s"},
	{"core.expand_s", "s"},
	{"core.resim_s", "s"},
	{"core.resim_vector_passes", "count"},
	{"core.resim_serial_fallbacks", "count"},
	{"core.mot_faults", "count"},
	{"core.expansions", "count"},
	{"core.mot_yield", "ratio"},
	{"core.parallel_efficiency", "ratio"},
	{"core.unattributed_s", "s"},
	{"serve.submit_ms.warm", "ms"},
	{"serve.submit_ms.trace_miss", "ms"},
	{"serve.submit_ms.cold", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.exec_ms.warm", "ms"},
	{"serve.exec_ms.trace_miss", "ms"},
	{"serve.exec_ms.cold", "ms"},
	{"serve.notify_ms", "ms"},
	{"serve.refused", "count"},
	{"serve.latency_samples", "count"},
	{"cache.circuit_hit_ratio", "ratio"},
	{"cache.trace_hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_faults_per_s", "faults/s"},
	{"trace.overhead_latency_p50_ms", "ms"},
	{"error_rate", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*outcome, error){
	"mot-resim": batchSpecs["mot-resim"].run,
	"mot-step0": batchSpecs["mot-step0"].run,
	"conv-only": batchSpecs["conv-only"].run,
	"serve-mix": runServeMix,
}

// opts are one run's arguments.
type opts struct {
	seed    int64
	seconds float64
	traced  bool
	// spansPath receives the traced half's spans as JSONL.
	spansPath string
	out       io.Writer
}

// outcome is what a workload run measured. The metrics map holds every
// metric of the run's kind (end-to-end or per-layer) by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records n failed operations and says why on out.
func (o *outcome) fail(out io.Writer, n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(out, "FAIL: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	code, err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// benchMain runs one workload and returns the exit code.
func benchMain(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: mot-resim, mot-step0, conv-only or serve-mix")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced half")
	spans := fs.String("spans", "", "traced-run span file (default .bench_build/spans/WORKLOAD.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	run, ok := workloads[*name]
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return 2, fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	o := opts{seed: *seed, seconds: *seconds, traced: *trace == 1, spansPath: *spans, out: out}
	if o.spansPath == "" {
		o.spansPath = filepath.Join(".bench_build", "spans", *name+".jsonl")
	}
	fmt.Fprintf(out, "workload %s, seed %d, %g s, trace %d\n", *name, *seed, *seconds, *trace)
	res, err := run(o)
	if err != nil {
		return 1, err
	}
	defs := metricsFor(res, o.traced)
	line, err := result(res, defs)
	if err != nil {
		return 1, err
	}
	printTable(out, line, defs)
	fmt.Fprintf(out, "error_rate %s\n", ratio{float64(res.failed), float64(res.attempted)})
	data, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(data))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// metricsFor completes res's metrics for the run's kind and returns
// their definitions. Per-layer metrics of a layer the workload does not
// exercise read 0; error_rate is failed over attempted operations.
func metricsFor(res *outcome, traced bool) []metricDef {
	if !traced {
		return endToEnd
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			res.metrics[d.name] = 0
		}
	}
	res.metrics["error_rate"] = ratio{float64(res.failed), float64(res.attempted)}.value()
	return perLayer
}

// result assembles the output object, insisting that the workload set
// exactly the listed metrics to finite values.
func result(res *outcome, defs []metricDef) (resultLine, error) {
	line := resultLine{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(res.metrics) != len(defs) {
		var extra []string
		for k := range res.metrics {
			if _, ok := line.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return line, fmt.Errorf("unlisted metrics %s", strings.Join(extra, ", "))
	}
	return line, nil
}

func printTable(out io.Writer, line resultLine, defs []metricDef) {
	for _, d := range defs {
		m := line.Metrics[d.name]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}
