// Command mottables regenerates the paper's evaluation tables on the
// synthetic benchmark suite:
//
//	mottables -table 2            # Table 2: detected fault counts
//	mottables -table 3            # Table 3: backward-implication counters
//	mottables -table hitec        # closing deterministic-sequence result
//	mottables -table all          # everything
//
// Useful flags: -circuits sg208,sg298 restricts the suite; -nstates
// overrides the expansion budget; -csv switches to CSV output; -json
// emits a machine-readable report with per-circuit stage breakdowns;
// -paper appends the published values in brackets; -v prints progress.
// Profiling: -cpuprofile/-memprofile/-exectrace write pprof and
// runtime/trace artifacts covering the whole suite run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/xtrace"
)

// usageError marks invalid flag values; main reports them with exit
// status 2 like flag-parse failures, runtime errors with status 1.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// runOptions collects everything run needs; main fills it from flags,
// tests construct it directly.
type runOptions struct {
	table        string
	circuits     string
	nstates      int
	csv          bool
	jsonOut      bool
	paper        bool
	skipNA       bool
	verbose      bool
	hitecCircuit string
	workers      int
	prescreen    bool
	metricsAddr  string
	spanSample   float64
	prof         profiling.Options

	out  io.Writer // table output (nil: os.Stdout)
	errw io.Writer // progress output (nil: os.Stderr)
}

func main() {
	var o runOptions
	flag.StringVar(&o.table, "table", "all", "which table to regenerate: 2, 3, hitec, all")
	flag.StringVar(&o.circuits, "circuits", "", "comma-separated circuit names (default: whole suite)")
	flag.IntVar(&o.nstates, "nstates", 0, "override the N_STATES expansion budget (default 64)")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
	flag.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable JSON report instead of text tables")
	flag.BoolVar(&o.paper, "paper", true, "append published values in brackets (text mode)")
	flag.BoolVar(&o.skipNA, "skip-na-baseline", false, "skip the [4] baseline on scaled circuits (paper reports NA there)")
	flag.BoolVar(&o.verbose, "v", false, "print per-circuit progress")
	flag.StringVar(&o.hitecCircuit, "hitec-circuit", "sg5378", "suite circuit for the deterministic-sequence experiment")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "fault-simulation worker goroutines (must be positive)")
	flag.BoolVar(&o.prescreen, "prescreen", true, "bit-parallel conventional prescreen before the per-fault MOT pipeline")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live Prometheus metrics, /healthz and pprof on this address during the suite run")
	flag.StringVar(&o.prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&o.prof.ExecTrace, "exectrace", "", "write a runtime execution trace to this file")
	flag.StringVar(&o.prof.SpanTrace, "span-trace", "", "write a hierarchical span trace of the suite run (Chrome trace-event JSON, for ui.perfetto.dev) to this file")
	flag.Float64Var(&o.spanSample, "span-sample", 0, "per-fault span sampling rate in [0,1] for -span-trace; 0 means the default 0.05")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mottables:", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// suiteReport is the -json schema: the table rows plus one full
// per-circuit run report (stage breakdown, pool gauges, histograms) for
// each procedure that ran.
type suiteReport struct {
	Table2   []report.Table2Row `json:"table2,omitempty"`
	Table3   []report.Table3Row `json:"table3,omitempty"`
	Shape    *report.ShapeCheck `json:"shape,omitempty"`
	Circuits []circuitReport    `json:"circuits,omitempty"`
	HITEC    *hitecReport       `json:"hitec,omitempty"`
}

type circuitReport struct {
	Circuit  string            `json:"circuit"`
	Proposed report.RunReport  `json:"proposed"`
	Baseline *report.RunReport `json:"baseline,omitempty"`
}

type hitecReport struct {
	Circuit  string           `json:"circuit"`
	SeqLen   int              `json:"seq_len"`
	Proposed report.RunReport `json:"proposed"`
	Baseline report.RunReport `json:"baseline"`
}

// wallTime approximates a run's wall-clock time from its coarse stage
// timers; experiments does not time whole runs itself.
func wallTime(res *core.Result) time.Duration {
	return res.Stages.PrescreenTime + res.Stages.MOTTime
}

// circuitRunReport converts one suite circuit run into its JSON view.
func circuitRunReport(r *experiments.CircuitRun, workers int) circuitReport {
	cr := circuitReport{
		Circuit:  r.Entry.Name,
		Proposed: report.NewRunReport(r.Proposed, "proposed", len(r.T), workers, wallTime(r.Proposed)),
	}
	if r.Baseline != nil {
		b := report.NewRunReport(r.Baseline, "baseline", len(r.T), workers, wallTime(r.Baseline))
		cr.Baseline = &b
	}
	return cr
}

// run executes the table generation. It is main without the process
// plumbing so tests can drive it.
func run(o runOptions) error {
	if o.out == nil {
		o.out = os.Stdout
	}
	if o.errw == nil {
		o.errw = os.Stderr
	}
	if o.workers < 1 {
		// A non-positive count used to reach RunParallel and silently run
		// serially; reject it like any other invalid flag value.
		return usageError{fmt.Sprintf("-workers must be at least 1, got %d", o.workers)}
	}
	wantTables := o.table == "2" || o.table == "3" || o.table == "all"
	wantHITEC := o.table == "hitec" || o.table == "all"
	if !wantTables && !wantHITEC {
		return usageError{fmt.Sprintf("unknown table %q (want 2, 3, hitec or all)", o.table)}
	}

	prof, err := profiling.Start(o.prof)
	if err != nil {
		return err
	}
	defer prof.Stop()
	var tracer *xtrace.Tracer
	if o.prof.SpanTrace != "" {
		if o.spanSample < 0 || o.spanSample > 1 {
			return usageError{fmt.Sprintf("-span-sample must be in [0, 1], got %g", o.spanSample)}
		}
		tracer = xtrace.New(xtrace.Options{})
		prof.SetSpanWriter(tracer.WriteChromeTrace)
	}

	var names []string
	if o.circuits != "" {
		names = strings.Split(o.circuits, ",")
	}
	opts := experiments.Options{
		NStates:            o.nstates,
		SkipBaselineScaled: o.skipNA,
		Workers:            o.workers,
		DisablePrescreen:   !o.prescreen,
		Tracer:             tracer,
		TraceSampleRate:    o.spanSample,
	}
	if o.metricsAddr != "" {
		reg, live := serve.NewRunTelemetry("mottables")
		opts.Live = live
		stop, err := serve.StartMetricsServer(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer stop()
	}
	if o.verbose {
		last := ""
		opts.Progress = func(circuit string, done, total int) {
			if circuit != last || done == total || done%500 == 0 {
				fmt.Fprintf(o.errw, "\r%-10s %6d/%d faults", circuit, done, total)
				if done == total {
					fmt.Fprintln(o.errw)
				}
				last = circuit
			}
		}
	}

	var rep suiteReport
	if wantTables {
		runs, err := experiments.RunSuite(names, opts)
		if err != nil {
			return err
		}
		if o.jsonOut {
			for _, r := range runs {
				rep.Circuits = append(rep.Circuits, circuitRunReport(r, o.workers))
			}
		}
		if o.table == "2" || o.table == "all" {
			rows := experiments.Table2Rows(runs)
			chk := report.CheckShape(rows)
			if o.jsonOut {
				rep.Table2 = rows
				rep.Shape = &chk
			} else {
				fmt.Fprintln(o.out, "Table 2: detected faults using random patterns (measured[paper])")
				if o.csv {
					fmt.Fprint(o.out, report.CSVTable2(rows))
				} else {
					fmt.Fprint(o.out, report.FormatTable2(rows, o.paper))
				}
				fmt.Fprintf(o.out, "shape: ordering(conv<=base<=prop) holds=%v, circuits with MOT extras=%d/%d, strict backward-implication wins=%d\n\n",
					chk.OrderingHolds, chk.CircuitsWithMOT, len(rows), chk.StrictWins)
				for _, note := range chk.Notes {
					fmt.Fprintln(o.out, "  !", note)
				}
			}
		}
		if o.table == "3" || o.table == "all" {
			rows := experiments.Table3Rows(runs)
			if o.jsonOut {
				rep.Table3 = rows
			} else {
				fmt.Fprintln(o.out, "Table 3: effectiveness of backward implications (averages over MOT-detected faults)")
				if o.csv {
					fmt.Fprint(o.out, report.CSVTable3(rows))
				} else {
					fmt.Fprint(o.out, report.FormatTable3(rows, o.paper))
				}
				fmt.Fprintln(o.out)
			}
		}
	}

	if wantHITEC {
		res, err := experiments.RunHITECStyle(o.hitecCircuit, opts)
		if err != nil {
			return err
		}
		if o.jsonOut {
			rep.HITEC = &hitecReport{
				Circuit:  res.Circuit,
				SeqLen:   res.SeqLen,
				Proposed: report.NewRunReport(res.Proposed, "proposed", res.SeqLen, 1, wallTime(res.Proposed)),
				Baseline: report.NewRunReport(res.Baseline, "baseline", res.SeqLen, 1, wallTime(res.Baseline)),
			}
		} else {
			fmt.Fprintf(o.out, "Deterministic (greedy, HITEC-style) sequence on %s: %d patterns\n", res.Circuit, res.SeqLen)
			fmt.Fprintf(o.out, "  conventional: %d detected\n", res.Proposed.Conv)
			fmt.Fprintf(o.out, "  proposed:     +%d extra (paper: s5378 +14 with HITEC)\n", res.Proposed.MOT)
			fmt.Fprintf(o.out, "  baseline [4]: +%d extra (paper: s5378 +12 with HITEC)\n", res.Baseline.MOT)
		}
	}

	if o.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := o.out.Write(data); err != nil {
			return err
		}
	}
	return prof.Stop()
}
