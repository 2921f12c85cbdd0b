// Package experiments drives the paper's evaluation: the Table 2 fault
// count comparison (conventional vs. the [4] baseline vs. the proposed
// procedure), the Table 3 backward-implication effectiveness counters,
// and the closing deterministic-sequence (HITEC-style) experiment. It is
// shared by cmd/mottables and the benchmark harness.
package experiments

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/xtrace"
)

// CircuitRun holds the results of running one suite circuit under both
// procedures with the same random test sequence.
type CircuitRun struct {
	Entry    circuits.SuiteEntry
	Circuit  *netlist.Circuit
	Faults   []fault.Fault
	T        seqsim.Sequence
	Proposed *core.Result
	// Baseline is nil when the baseline was skipped (mirroring the "NA"
	// entries of the paper, where [4] could not be applied to the largest
	// circuits).
	Baseline *core.Result
}

// Options controls an experiment run.
type Options struct {
	// NStates overrides the expansion budget (0 keeps the default 64).
	NStates int
	// SkipBaselineScaled skips the [4] baseline on entries marked Scaled,
	// mirroring the paper's NA entries for the largest circuits.
	SkipBaselineScaled bool
	// Workers is the number of goroutines simulating faults; values
	// below 2 run serially. Results are identical either way.
	Workers int
	// DisablePrescreen turns off the bit-parallel conventional prescreen
	// (on by default via core.DefaultConfig). Results are identical
	// either way; disabling it exists for cross-checking and timing.
	DisablePrescreen bool
	// Progress, when non-nil, receives per-fault progress.
	Progress func(circuit string, done, total int)
	// Live, when non-nil, receives coarse-cadence live snapshots from
	// every run of the experiment (all circuits and procedures publish
	// into the one LiveStats), for -metrics-addr exposition.
	Live *core.LiveStats
	// Tracer, when non-nil, collects hierarchical spans from every run of
	// the experiment at TraceSampleRate (see core.Config.Tracer).
	Tracer          *xtrace.Tracer
	TraceSampleRate float64
}

// configs derives the proposed and baseline configurations.
func (o Options) configs() (core.Config, core.Config) {
	p := core.DefaultConfig()
	b := core.BaselineConfig()
	if o.NStates > 0 {
		p.NStates = o.NStates
		b.NStates = o.NStates
	}
	if o.DisablePrescreen {
		p.Prescreen = false
		b.Prescreen = false
	}
	p.Live = o.Live
	b.Live = o.Live
	p.Tracer = o.Tracer
	b.Tracer = o.Tracer
	p.TraceSampleRate = o.TraceSampleRate
	b.TraceSampleRate = o.TraceSampleRate
	return p, b
}

// RunEntry runs one suite circuit: generate the circuit, generate the
// random sequence, collapse the fault list, then simulate all faults
// under the proposed procedure and (optionally) the [4] baseline.
func RunEntry(e circuits.SuiteEntry, opts Options) (*CircuitRun, error) {
	c, err := circuits.Generate(e.Params)
	if err != nil {
		return nil, err
	}
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	cfgP, cfgB := opts.configs()

	run := &CircuitRun{Entry: e, Circuit: c, Faults: faults, T: T}
	var progress func(done, total int)
	if opts.Progress != nil {
		progress = func(done, total int) { opts.Progress(e.Name, done, total) }
	}
	sp, err := core.NewSimulator(c, T, cfgP)
	if err != nil {
		return nil, err
	}
	if run.Proposed, err = sp.RunParallel(faults, opts.Workers, progress); err != nil {
		return nil, err
	}
	if !(opts.SkipBaselineScaled && e.Scaled) {
		sb, err := core.NewSimulator(c, T, cfgB)
		if err != nil {
			return nil, err
		}
		if run.Baseline, err = sb.RunParallel(faults, opts.Workers, progress); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// RunSuite runs every listed entry (all suite entries when names is
// empty).
func RunSuite(names []string, opts Options) ([]*CircuitRun, error) {
	entries := circuits.Suite()
	if len(names) > 0 {
		var sel []circuits.SuiteEntry
		for _, n := range names {
			e, err := circuits.SuiteEntryByName(n)
			if err != nil {
				return nil, err
			}
			sel = append(sel, e)
		}
		entries = sel
	}
	runs := make([]*CircuitRun, 0, len(entries))
	for _, e := range entries {
		run, err := RunEntry(e, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Table2Rows converts circuit runs into Table 2 rows.
func Table2Rows(runs []*CircuitRun) []report.Table2Row {
	rows := make([]report.Table2Row, 0, len(runs))
	for _, r := range runs {
		paper := r.Entry.Paper
		row := report.Table2Row{
			Circuit:   r.Entry.Name,
			Total:     r.Proposed.Total,
			Conv:      r.Proposed.Conv,
			PropTotal: r.Proposed.Detected(),
			PropExtra: r.Proposed.MOT,
			Paper:     &paper,
		}
		if r.Baseline != nil {
			row.BaseTotal = r.Baseline.Detected()
			row.BaseExtra = r.Baseline.MOT
		} else {
			row.BaseTotal = row.Conv // NA: report conventional as floor
		}
		rows = append(rows, row)
	}
	return rows
}

// Table3Rows converts circuit runs into Table 3 rows (averages of the
// per-fault counters over MOT-detected faults).
func Table3Rows(runs []*CircuitRun) []report.Table3Row {
	rows := make([]report.Table3Row, 0, len(runs))
	for _, r := range runs {
		det, conf, extra := r.Proposed.AvgCounters()
		paper := r.Entry.Paper
		rows = append(rows, report.Table3Row{
			Circuit: r.Entry.Name,
			Det:     det, Conf: conf, Extra: extra,
			Paper: &paper,
		})
	}
	return rows
}

// HITECResult is the closing experiment: MOT simulation of a compact
// deterministic (greedy coverage-directed) sequence on the s5378 stand-in,
// comparing proposed and baseline extras. The paper reports 14 vs. 12
// extra faults with the HITEC sequence.
type HITECResult struct {
	Circuit  string
	SeqLen   int
	Proposed *core.Result
	Baseline *core.Result
}

// RunHITECStyle runs the deterministic-sequence experiment on the named
// suite entry (the paper uses s5378).
func RunHITECStyle(name string, opts Options) (*HITECResult, error) {
	e, err := circuits.SuiteEntryByName(name)
	if err != nil {
		return nil, err
	}
	c, err := circuits.Generate(e.Params)
	if err != nil {
		return nil, err
	}
	faults := fault.CollapsedList(c)
	gcfg := tgen.DefaultGreedyConfig()
	gcfg.MaxLen = e.SeqLen * 2
	gcfg.Seed = e.SeqSeed
	T, err := tgen.Greedy(c, faults, gcfg)
	if err != nil {
		return nil, err
	}
	if len(T) == 0 {
		return nil, fmt.Errorf("experiments: greedy sequence for %s is empty", e.Name)
	}
	cfgP, cfgB := opts.configs()
	res := &HITECResult{Circuit: e.Name, SeqLen: len(T)}
	sp, err := core.NewSimulator(c, T, cfgP)
	if err != nil {
		return nil, err
	}
	if res.Proposed, err = sp.Run(faults, nil); err != nil {
		return nil, err
	}
	sb, err := core.NewSimulator(c, T, cfgB)
	if err != nil {
		return nil, err
	}
	if res.Baseline, err = sb.Run(faults, nil); err != nil {
		return nil, err
	}
	return res, nil
}
