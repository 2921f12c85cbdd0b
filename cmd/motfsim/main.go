// Command motfsim is the fault simulator CLI: it loads a circuit (a
// .bench file or a built-in), obtains a test sequence (a vector file, a
// seeded random sequence, or the greedy generator), and reports per-fault
// and summary results for the selected method.
//
//	motfsim -circuit s27 -random 64 -seed 7
//	motfsim -bench design.bench -vectors t.vec -method baseline
//	motfsim -circuit sg298 -random 64 -method proposed -list
//
// Methods: conventional (three-valued serial simulation only),
// lowcomplexity (implication-based identification only, after [6]), baseline
// (state expansion of [4]), proposed (state expansion with backward
// implications — the paper's procedure, default).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/serve"
)

// runOptions collects everything the fault-simulation entry point needs;
// main fills it from flags, tests construct it directly.
type runOptions struct {
	benchPath, builtin string
	vecPath            string
	randomLen          int
	greedy             bool
	seed               int64
	method             string
	nstates            int
	full, list, stats  bool
	workers            int
	prescreen          bool
	metrics            bool
	jsonOut            bool
	tracePath          string
	traceTimings       bool
	spanTracePath      string
	spanSample         float64
	progress           bool
	metricsAddr        string
	prof               profiling.Options
	out                io.Writer // summary destination; nil means os.Stdout
}

func main() {
	var o runOptions
	flag.StringVar(&o.benchPath, "bench", "", "ISCAS-89 .bench netlist file")
	flag.StringVar(&o.builtin, "circuit", "", "built-in circuit name (s27, intro, fig4, table1, sg208...)")
	flag.StringVar(&o.vecPath, "vectors", "", "test sequence file (one pattern per line)")
	flag.IntVar(&o.randomLen, "random", 0, "generate a random test sequence of this length")
	flag.BoolVar(&o.greedy, "greedy", false, "generate a greedy coverage-directed sequence")
	flag.Int64Var(&o.seed, "seed", 1, "seed for sequence generation")
	flag.StringVar(&o.method, "method", "proposed", "conventional, lowcomplexity, baseline, or proposed")
	flag.IntVar(&o.nstates, "nstates", 64, "expansion budget N_STATES")
	flag.BoolVar(&o.full, "full-faults", false, "use the uncollapsed fault list")
	flag.BoolVar(&o.list, "list", false, "list per-fault outcomes")
	flag.BoolVar(&o.stats, "stats", false, "print circuit statistics and exit")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "fault-simulation worker goroutines (must be positive)")
	flag.BoolVar(&o.prescreen, "prescreen", true, "bit-parallel conventional prescreen before the per-fault MOT pipeline")
	flag.BoolVar(&o.metrics, "metrics", true, "collect the per-stage breakdown and per-fault histograms")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the run summary as JSON instead of text")
	flag.StringVar(&o.tracePath, "trace", "", "write a per-fault JSONL trace to this file")
	flag.BoolVar(&o.traceTimings, "trace-timings", false, "add per-fault stage times to the trace (nondeterministic; requires -metrics)")
	flag.StringVar(&o.spanTracePath, "span-trace", "", "write a hierarchical span trace (Chrome trace-event JSON, for ui.perfetto.dev) to this file")
	flag.Float64Var(&o.spanSample, "span-sample", 0, "per-fault span sampling rate in [0,1] for -span-trace; 0 means the default 0.05")
	flag.BoolVar(&o.progress, "progress", false, "print a progress line with rate and ETA to stderr")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live Prometheus metrics, /healthz and pprof on this address during the run")
	flag.StringVar(&o.prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&o.prof.ExecTrace, "exectrace", "", "write a runtime execution trace to this file")
	vcdPath := flag.String("vcd", "", "dump a waveform (VCD) of the simulation to this file")
	vcdFault := flag.String("vcd-fault", "", "fault to inject in the VCD dump (default fault-free); use names as printed by -list")
	flag.Parse()
	if *vcdPath != "" {
		if err := dumpVCD(o.benchPath, o.builtin, o.vecPath, o.randomLen, o.seed, *vcdPath, *vcdFault); err != nil {
			fmt.Fprintln(os.Stderr, "motfsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "motfsim:", err)
		os.Exit(1)
	}
}

// dumpVCD writes a waveform of one machine's simulation.
func dumpVCD(benchPath, builtin, vecPath string, randomLen int, seed int64, vcdPath, faultName string) error {
	c, err := loadCircuit(benchPath, builtin)
	if err != nil {
		return err
	}
	var T motsim.Sequence
	switch {
	case vecPath != "":
		if T, err = motsim.ReadVectorsFile(vecPath); err != nil {
			return err
		}
	case randomLen > 0:
		T = motsim.RandomSequence(c, randomLen, seed)
	default:
		return fmt.Errorf("need -vectors FILE or -random N for the VCD dump")
	}
	var flt *motsim.Fault
	if faultName != "" {
		f, err := motsim.FaultByName(c, motsim.Faults(c), faultName)
		if err != nil {
			return err
		}
		flt = &f
	}
	tr, err := motsim.Simulate(c, T, flt, true)
	if err != nil {
		return err
	}
	out, err := os.Create(vcdPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := motsim.WriteVCD(out, c, T, tr, true); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d frames, %d signals)\n", vcdPath, len(T), c.NumNodes())
	return nil
}

// loadCircuit resolves the -bench / -circuit selection.
func loadCircuit(benchPath, builtin string) (*motsim.Circuit, error) {
	switch {
	case benchPath != "" && builtin != "":
		return nil, fmt.Errorf("use either -bench or -circuit, not both")
	case benchPath != "":
		return motsim.LoadBench(benchPath)
	case builtin != "":
		c, err := motsim.BuiltinCircuit(builtin)
		if err != nil {
			return nil, fmt.Errorf("%w (known: %v)", err, motsim.BuiltinNames())
		}
		return c, nil
	}
	return nil, fmt.Errorf("need -bench FILE or -circuit NAME")
}

// conventionalReport is the -json schema of the bit-parallel
// conventional fast path (the MOT methods use report.RunReport).
type conventionalReport struct {
	Circuit   string  `json:"circuit"`
	Method    string  `json:"method"`
	Faults    int     `json:"faults"`
	Patterns  int     `json:"patterns"`
	Detected  int     `json:"detected_total"`
	Coverage  float64 `json:"coverage"`
	ElapsedNS int64   `json:"elapsed_ns"`
}

func run(o runOptions) error {
	out := o.out
	if out == nil {
		out = os.Stdout
	}
	// A non-positive worker count used to reach RunParallel and silently
	// degrade to serial execution; reject it outright.
	if o.workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", o.workers)
	}
	c, err := loadCircuit(o.benchPath, o.builtin)
	if err != nil {
		return err
	}
	if o.stats {
		fmt.Fprintln(out, c.Stats())
		return nil
	}

	faults := motsim.CollapsedFaults(c)
	if o.full {
		faults = motsim.Faults(c)
	}

	var T motsim.Sequence
	switch {
	case o.vecPath != "":
		if T, err = motsim.ReadVectorsFile(o.vecPath); err != nil {
			return err
		}
	case o.greedy:
		gcfg := motsim.DefaultGreedyConfig()
		gcfg.Seed = o.seed
		if o.randomLen > 0 {
			gcfg.MaxLen = o.randomLen
		}
		if T, err = motsim.GreedySequence(c, faults, gcfg); err != nil {
			return err
		}
		if !o.jsonOut {
			fmt.Fprintf(out, "greedy sequence: %d patterns\n", len(T))
		}
	case o.randomLen > 0:
		T = motsim.RandomSequence(c, o.randomLen, o.seed)
	default:
		return fmt.Errorf("need -vectors FILE, -random N, or -greedy")
	}

	o.prof.SpanTrace = o.spanTracePath
	prof, err := profiling.Start(o.prof)
	if err != nil {
		return err
	}
	defer prof.Stop()

	if o.method == "conventional" {
		// Fast path: bit-parallel conventional simulation, 63 machines at
		// a time.
		start := time.Now()
		results, err := motsim.Conventional(c, T, faults)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		detected := 0
		for _, r := range results {
			if r.Detected {
				detected++
			}
			if o.list && !o.jsonOut {
				verdict := "undetected"
				if r.Detected {
					verdict = fmt.Sprintf("detected at t=%d output=%d", r.At.Time, r.At.Output)
				}
				fmt.Fprintf(out, "%-28s %s\n", r.Fault.Name(c), verdict)
			}
		}
		if o.jsonOut {
			rep := conventionalReport{
				Circuit: c.Name, Method: "conventional",
				Faults: len(faults), Patterns: len(T),
				Detected:  detected,
				Coverage:  float64(detected) / float64(max(1, len(faults))),
				ElapsedNS: int64(elapsed),
			}
			return writeJSON(out, rep)
		}
		fmt.Fprintf(out, "%s: %d faults, %d patterns, method=conventional (bit-parallel)\n", c.Name, len(faults), len(T))
		fmt.Fprintf(out, "  total detected: %d / %d (%.1f%%)\n",
			detected, len(faults), 100*float64(detected)/float64(max(1, len(faults))))
		return nil
	}

	var cfg motsim.Config
	switch o.method {
	case "proposed":
		cfg = motsim.DefaultConfig()
	case "baseline":
		cfg = motsim.BaselineConfig()
	case "lowcomplexity":
		// Implication-based identification only, after the approach of
		// the paper's reference [6]: no state expansion.
		cfg = motsim.DefaultConfig()
		cfg.IdentificationOnly = true
	default:
		return fmt.Errorf("unknown method %q", o.method)
	}
	cfg.NStates = max(1, o.nstates)
	cfg.Prescreen = o.prescreen
	cfg.Metrics = o.metrics
	cfg.TraceTimings = o.traceTimings
	if o.spanTracePath != "" {
		// The span trace rides the profiling session: the tracer is bound
		// here, the file is written once at prof.Stop.
		tracer := motsim.NewTracer(motsim.TracerOptions{})
		cfg.Tracer = tracer
		cfg.TraceSampleRate = o.spanSample
		prof.SetSpanWriter(tracer.WriteChromeTrace)
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceWriter = f
	}
	if o.metricsAddr != "" {
		reg, live := serve.NewRunTelemetry("motfsim")
		cfg.Live = live
		stop, err := serve.StartMetricsServer(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer stop()
	}

	sim, err := motsim.New(c, T, cfg)
	if err != nil {
		return err
	}
	var progressCB func(done, total int)
	var prog *report.Progress
	if o.progress {
		prog = report.NewProgress(os.Stderr, "faults")
		progressCB = prog.Update
	}
	start := time.Now()
	res, err := sim.RunParallel(faults, o.workers, progressCB)
	if prog != nil {
		prog.Done()
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := prof.Stop(); err != nil {
		return err
	}
	if o.jsonOut {
		return writeJSON(out, report.NewRunReport(res, o.method, len(T), o.workers, elapsed))
	}
	if o.list {
		for _, oc := range res.Outcomes {
			fmt.Fprintf(out, "%-28s %s\n", oc.Fault.Name(c), oc.Outcome)
		}
	}
	fmt.Fprintf(out, "%s: %d faults, %d patterns, method=%s\n", c.Name, res.Total, len(T), o.method)
	if cfg.Prescreen {
		fmt.Fprintf(out, "  prescreen: %d bit-parallel passes dropped %d faults, pruned %d by condition (C) in %s (MOT stage %s)\n",
			res.Stages.PrescreenPasses, res.Stages.PrescreenDropped, res.Stages.PrescreenPrunedC,
			res.Stages.PrescreenTime.Round(time.Microsecond),
			res.Stages.MOTTime.Round(time.Microsecond))
	}
	if res.Stages.ResimVectorPasses > 0 {
		fmt.Fprintf(out, "  resim: %d vector passes over %d frames, %d gate evals\n",
			res.Stages.ResimVectorPasses, res.Stages.ResimVectorFrames, res.Stages.ResimGateEvals)
	}
	fmt.Fprintf(out, "  detected conventionally: %d\n", res.Conv)
	fmt.Fprintf(out, "  detected by MOT beyond conventional: %d (%d by identification alone)\n", res.MOT, res.Identified)
	fmt.Fprintf(out, "  undetected faults pruned by condition (C): %d\n", res.PrunedConditionC)
	fmt.Fprintf(out, "  sequence-duplicating expansions: %d\n", res.Expansions)
	det, conf, extra := res.AvgCounters()
	fmt.Fprintf(out, "  avg counters over MOT-detected: detect=%.2f conf=%.2f extra=%.2f\n", det, conf, extra)
	fmt.Fprintf(out, "  total detected: %d / %d (%.1f%%)\n",
		res.Detected(), res.Total, 100*float64(res.Detected())/float64(max(1, res.Total)))
	if o.metrics {
		fmt.Fprint(out, report.FormatRunStats(res))
	}
	return nil
}

// writeJSON marshals v as indented JSON to out.
func writeJSON(out io.Writer, v any) error {
	var (
		data []byte
		err  error
	)
	if r, ok := v.(report.RunReport); ok {
		data, err = r.JSON()
	} else {
		data, err = json.MarshalIndent(v, "", "  ")
		data = append(data, '\n')
	}
	if err != nil {
		return err
	}
	_, err = out.Write(data)
	return err
}
