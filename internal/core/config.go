// Package core implements the paper's contribution: fault simulation
// under the restricted multiple observation time (MOT) approach using
// state expansion enhanced with backward implications, together with the
// state-expansion-only baseline procedure of [4] it improves upon.
//
// The per-fault pipeline follows Procedure 1 of the paper:
//
//  1. Conventional serial fault simulation; detected faults are dropped.
//  2. The necessary condition (C) — some time unit has both unspecified
//     faulty state variables and usefully unspecified outputs — prunes
//     faults MOT simulation cannot possibly detect.
//  3. Backward-implication information (conflicts, detections, extra
//     specified state variables) is collected for every candidate
//     (time unit, state variable) pair (Section 3.1).
//  4. Faults whose every next-state assignment leads to conflict or
//     detection are identified as detected outright (Section 3.2).
//  5. Pairs are selected for state expansion by the paper's four criteria
//     and applied — single-sided pairs by forcing the surviving value,
//     double-sided pairs by duplicating all state sequences — until the
//     sequence budget N_STATES is reached (Section 3.3, Procedure 2).
//  6. The expanded sequences are resimulated; the fault is detected when
//     every sequence ends in a detection or an infeasibility conflict
//     (Section 3.4).
package core

import (
	"fmt"
	"io"

	"repro/internal/xtrace"
)

// Schedule selects the implication schedule inside a time frame.
type Schedule uint8

const (
	// TwoPass is the paper's schedule: one backward sweep (outputs to
	// inputs) followed by one forward sweep (inputs to outputs).
	TwoPass Schedule = iota
	// Fixpoint alternates sweeps until no further value is derived — an
	// extension over the paper trading time for implication strength.
	Fixpoint
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case TwoPass:
		return "two-pass"
	case Fixpoint:
		return "fixpoint"
	}
	return fmt.Sprintf("Schedule(%d)", uint8(s))
}

// Config controls the MOT fault simulation procedure.
type Config struct {
	// NStates is the limit on the number of state sequences after
	// expansion (the paper's experiments use 64).
	NStates int
	// UseBackwardImplications enables the paper's contribution. When
	// false the simulator degrades to the state-expansion-only baseline
	// of [4]: no per-pair implication information is collected, each
	// expansion specifies exactly the selected state variable, and
	// selection uses criteria (1) and (2) only.
	UseBackwardImplications bool
	// Schedule selects the in-frame implication schedule.
	Schedule Schedule
	// FixpointRounds bounds the sweep round-trips of the Fixpoint
	// schedule.
	FixpointRounds int
	// BackwardDepth is the number of time units backward implications may
	// traverse. The paper uses 1; larger values chain newly specified
	// present-state variables into earlier frames (Section 2 sketches
	// this extension), detecting additional conflicts and detections.
	BackwardDepth int
	// MaxPairs caps the number of (time unit, state variable) pairs whose
	// backward implications are collected per fault, bounding worst-case
	// work on circuits whose faulty machines never initialize. Zero means
	// no cap. Pairs are collected in ascending time order, which the
	// selection criteria prefer anyway (N_out is non-increasing in time).
	MaxPairs int
	// Prescreen enables the batched bit-parallel stage in Run and
	// RunParallel: the whole fault list is first simulated 255 faulty
	// machines per word (internal/bitsim). Faults detected
	// conventionally, and undetected faults failing condition (C) in
	// their lane, are classified directly from the lane results; only
	// the rest enter the per-fault MOT pipeline. Outcomes are identical
	// with the prescreen off (every fault then runs the serial step 0
	// and condition (C) inside SimulateFault); the off mode is the
	// cross-check oracle and is asserted bit-identical by the prescreen
	// tests. SimulateFault itself never prescreens.
	Prescreen bool
	// IdentificationOnly stops the pipeline after Section 3.2: faults are
	// credited only when the collected implication information alone
	// proves detection, with no state expansion or resimulation. This
	// mirrors the low-complexity implication-based approach of the
	// paper's reference [6], which trades accuracy for speed; it detects
	// a subset of the faults the full procedure detects.
	IdentificationOnly bool
	// Metrics enables the per-stage instrumentation of Run and
	// RunParallel: stage timers, per-fault work counters and histograms
	// (Result.Stages.Work and Result.Metrics). The cost is a handful of
	// monotonic-clock reads per fault; outcomes are identical either
	// way. Off, the outcome tally (Result.Tally, MOTFaults included), the
	// prescreen counters and the coarse prescreen/MOT stage split are
	// still recorded.
	Metrics bool
	// TraceWriter, when non-nil, receives an opt-in per-fault JSONL
	// trace: one event per fault in fault-list order, recording the
	// outcome, detection site, and pipeline counters. The content is
	// deterministic regardless of worker count; events are buffered and
	// emitted after the run completes, never from worker goroutines.
	TraceWriter io.Writer
	// TraceTimings adds the per-fault stage-time breakdown to every
	// trace event. Timings are wall-clock measurements and therefore not
	// deterministic across runs; leave this off when traces are diffed.
	// Requires Metrics.
	TraceTimings bool
	// Tracer, when non-nil, receives hierarchical spans from Run and
	// RunParallel: a run span over the whole fault list, stage spans for
	// the prescreen (with one span per bit-parallel batch) and the
	// per-fault MOT stage, one span per fault-loop worker, and — for the
	// faults selected by TraceSampleRate — a span per fault with
	// expand/resim sub-spans. Span IDs derive from deterministic keys
	// (fault index, batch index, stage name), so the span set, parent
	// links and attributes are identical across worker counts; only
	// timestamps and worker/track assignments are scheduling-dependent.
	// Export with Tracer.WriteChromeTrace (Perfetto / chrome://tracing)
	// or WriteJSONL. Nil (the default) keeps tracing entirely off the
	// hot path.
	Tracer *xtrace.Tracer
	// TraceSampleRate is the fraction of faults that get per-fault spans,
	// in [0, 1]; sampling is deterministic by fault index (xtrace.SampleAt),
	// never random. Zero selects the default (0.05); 1 traces every
	// fault. Ignored when Tracer is nil.
	TraceSampleRate float64
	// Live, when non-nil, receives coarse-cadence snapshots of the run
	// while it executes: every worker folds its pending per-fault deltas
	// into the shared LiveStats every LiveEvery faults, so an HTTP
	// scraper (cmd/motserve, the batch CLIs' -metrics-addr) can watch an
	// in-flight run without a lock on the per-fault hot path.
	// The stage-time and frame-counter fields additionally require
	// Metrics; the detection counters work either way. Multiple runs may
	// share one LiveStats, aggregating their counters.
	Live *LiveStats
	// LiveEvery is the publication cadence in faults (per worker); zero
	// selects the default (32). Smaller values make /metrics fresher at
	// the cost of more shared-counter traffic. Ignored when Live is nil.
	LiveEvery int
}

// DefaultConfig returns the configuration used in the paper's experiments:
// N_STATES = 64, backward implications on, two-pass schedule, one time
// unit of backward implication. The bit-parallel conventional prescreen
// (an engineering speedup the paper sets aside) is on.
func DefaultConfig() Config {
	return Config{
		NStates:                 64,
		UseBackwardImplications: true,
		Schedule:                TwoPass,
		FixpointRounds:          8,
		BackwardDepth:           1,
		MaxPairs:                4096,
		Prescreen:               true,
		Metrics:                 true,
	}
}

// BaselineConfig returns the configuration reproducing the procedure of
// [4]: state expansion with the same N_STATES limit, no backward
// implications.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.UseBackwardImplications = false
	return cfg
}

// MethodConfig returns the preset of a named method: "proposed"
// (DefaultConfig), "baseline" (BaselineConfig) or "lowcomplexity",
// implication-based identification only after the approach of the
// paper's reference [6], with no state expansion.
func MethodConfig(method string) (Config, error) {
	switch method {
	case "proposed":
		return DefaultConfig(), nil
	case "baseline":
		return BaselineConfig(), nil
	case "lowcomplexity":
		cfg := DefaultConfig()
		cfg.IdentificationOnly = true
		return cfg, nil
	}
	return Config{}, fmt.Errorf("unknown method %q (want proposed, baseline, or lowcomplexity)", method)
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	switch {
	case cfg.NStates < 1:
		return fmt.Errorf("core: NStates must be positive, got %d", cfg.NStates)
	case cfg.BackwardDepth < 1:
		return fmt.Errorf("core: BackwardDepth must be at least 1, got %d", cfg.BackwardDepth)
	case cfg.Schedule == Fixpoint && cfg.FixpointRounds < 1:
		return fmt.Errorf("core: FixpointRounds must be positive with the fixpoint schedule")
	case cfg.MaxPairs < 0:
		return fmt.Errorf("core: MaxPairs must be non-negative, got %d", cfg.MaxPairs)
	case cfg.TraceTimings && !cfg.Metrics:
		return fmt.Errorf("core: TraceTimings requires Metrics")
	case cfg.LiveEvery < 0:
		return fmt.Errorf("core: LiveEvery must be non-negative, got %d", cfg.LiveEvery)
	case cfg.TraceSampleRate < 0 || cfg.TraceSampleRate > 1:
		return fmt.Errorf("core: TraceSampleRate must be in [0, 1], got %v", cfg.TraceSampleRate)
	}
	return nil
}

// Outcome classifies the result of simulating one fault.
type Outcome uint8

const (
	// Undetected: the test sequence does not detect the fault under the
	// restricted MOT approach within the configured budgets.
	Undetected Outcome = iota
	// DetectedConventional: conventional three-valued simulation detects
	// the fault (single observation time).
	DetectedConventional
	// DetectedMOT: the fault is detected by the MOT procedure beyond
	// conventional simulation.
	DetectedMOT
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Undetected:
		return "undetected"
	case DetectedConventional:
		return "detected(conventional)"
	case DetectedMOT:
		return "detected(MOT)"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Detected reports whether the outcome is a detection.
func (o Outcome) Detected() bool { return o != Undetected }

// Counters are the paper's per-fault effectiveness counters (Table 3),
// incremented for every pair selected for expansion:
//
//   - Det counts next-state assignments that led to fault detection;
//   - Conf counts next-state assignments that led to conflicts;
//   - Extra counts state-variable values specified by the expansions.
type Counters struct {
	Det   int
	Conf  int
	Extra int
}

// add accumulates other into c.
func (c *Counters) add(other Counters) {
	c.Det += other.Det
	c.Conf += other.Conf
	c.Extra += other.Extra
}
