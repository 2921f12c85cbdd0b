package core

import (
	"bufio"
	"encoding/json"

	"repro/internal/seqsim"
)

// SimTrace summarizes the step-0 frame evaluations of one fault for the
// JSONL trace and span attributes: sparse faulty frames evaluated,
// node value changes (events) propagated, and gate evaluations
// performed. The summary is byte-identical across worker counts.
type SimTrace struct {
	Frames    int64 `json:"sim_frames,omitempty"`
	Events    int64 `json:"sim_events,omitempty"`
	GateEvals int64 `json:"sim_gate_evals,omitempty"`
}

// simTraceDelta summarizes the sparse-frame work between two readings
// of a simulator's counters.
func simTraceDelta(before, after seqsim.SimStats) SimTrace {
	return SimTrace{
		Frames:    after.EventFrames - before.EventFrames,
		Events:    after.Events - before.Events,
		GateEvals: after.EventGateEvals - before.EventGateEvals,
	}
}

// TraceDetection is a conventional detection site in a trace event.
type TraceDetection struct {
	Time   int `json:"time"`
	Output int `json:"output"`
}

// TraceEvent is one per-fault line of the JSONL trace: the fault, its
// outcome, and the pipeline counters that led there. Every field except
// Timing is fully determined by the circuit, test sequence and
// configuration, so the trace is byte-identical across worker counts.
// Timing (present only with Config.TraceTimings) carries wall-clock
// stage durations and is inherently nondeterministic.
type TraceEvent struct {
	Fault   string          `json:"fault"`
	Outcome string          `json:"outcome"`
	At      *TraceDetection `json:"at,omitempty"`
	Pairs   int             `json:"pairs,omitempty"`
	// Expansions and Sequences describe the expansion that settled the
	// fault (the portfolio retry's when it detected the fault).
	Expansions int `json:"expansions,omitempty"`
	Sequences  int `json:"sequences,omitempty"`
	// CtrDet/CtrConf/CtrExtra are the fault's Table 3 counters.
	CtrDet   int  `json:"ctr_det,omitempty"`
	CtrConf  int  `json:"ctr_conf,omitempty"`
	CtrExtra int  `json:"ctr_extra,omitempty"`
	PrunedC  bool `json:"pruned_condition_c,omitempty"`
	// Identified marks Section 3.2 identifications (detected from the
	// collected implication information alone, no expansion).
	Identified bool `json:"identified,omitempty"`
	// Resim summarizes the fault's resimulation passes (vector passes,
	// lanes packed, serial fallbacks; see ResimTrace). Deterministic for
	// a given configuration; omitted when the fault never resimulated.
	Resim *ResimTrace `json:"resim,omitempty"`
	// Sim summarizes the fault's step-0 frame evaluations (sparse frames,
	// events, gate evaluations; see SimTrace). Deterministic and
	// evaluator-invariant; omitted when step 0 did no sparse work.
	Sim *SimTrace `json:"sim,omitempty"`
	// Timing is the per-fault stage breakdown in nanoseconds; only with
	// Config.TraceTimings, and zero for prescreen-dropped faults (they
	// never enter the per-fault pipeline).
	Timing *StageNS `json:"timing_ns,omitempty"`
}

// traceEvent builds the trace line for one outcome.
func (s *Simulator) traceEvent(o *FaultOutcome, timing *StageNS, resim *ResimTrace, sim *SimTrace) TraceEvent {
	ev := TraceEvent{
		Fault:      o.Fault.Name(s.c),
		Outcome:    o.Outcome.String(),
		Pairs:      o.Pairs,
		Expansions: o.Expansions,
		Sequences:  o.Sequences,
		CtrDet:     o.Counters.Det,
		CtrConf:    o.Counters.Conf,
		CtrExtra:   o.Counters.Extra,
		PrunedC:    o.FailedConditionC,
		Identified: o.ByIdentification,
	}
	if o.Outcome == DetectedConventional {
		ev.At = &TraceDetection{Time: o.At.Time, Output: o.At.Output}
	}
	if resim != nil && *resim != (ResimTrace{}) {
		ev.Resim = resim
	}
	if sim != nil && *sim != (SimTrace{}) {
		ev.Sim = sim
	}
	ev.Timing = timing
	return ev
}

// writeTrace emits one JSONL event per fault to Config.TraceWriter, in
// fault-list order. It runs after the fault loop completes — never from
// worker goroutines — so the output is identical for any worker count.
// traceTimes, traceResims and traceSims are indexed like res.Outcomes
// and may be nil (no timings / no trace at all).
func (s *Simulator) writeTrace(res *Result, traceTimes []StageNS, traceResims []ResimTrace, traceSims []SimTrace) error {
	if s.cfg.TraceWriter == nil {
		return nil
	}
	bw := bufio.NewWriter(s.cfg.TraceWriter)
	for k := range res.Outcomes {
		var timing *StageNS
		if traceTimes != nil {
			timing = &traceTimes[k]
		}
		var resim *ResimTrace
		if traceResims != nil {
			resim = &traceResims[k]
		}
		var sim *SimTrace
		if traceSims != nil {
			sim = &traceSims[k]
		}
		ev := s.traceEvent(&res.Outcomes[k], timing, resim, sim)
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceTimes allocates the per-fault stage-time buffer when the
// configuration asks for timed traces.
func (s *Simulator) traceTimes(n int) []StageNS {
	if s.cfg.TraceWriter == nil || !s.cfg.TraceTimings {
		return nil
	}
	return make([]StageNS, n)
}

// traceResims allocates the per-fault resimulation-summary buffer when
// a trace is requested. Unlike timings the content is deterministic, so
// it rides along on every trace.
func (s *Simulator) traceResims(n int) []ResimTrace {
	if s.cfg.TraceWriter == nil {
		return nil
	}
	return make([]ResimTrace, n)
}

// traceSims allocates the per-fault frame-evaluation-summary buffer
// when a trace is requested. Deterministic and evaluator-invariant, so
// it rides along on every trace.
func (s *Simulator) traceSims(n int) []SimTrace {
	if s.cfg.TraceWriter == nil {
		return nil
	}
	return make([]SimTrace, n)
}
