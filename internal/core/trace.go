package core

import (
	"bufio"
	"encoding/json"
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
	// CtrDet/CtrConf/CtrExtra are the Table 3 counters of the fault's
	// expansions. On a detected(MOT) line they are the counters Result
	// and /metrics sum: the identifying pair's, or the proposed
	// expansion's plus the portfolio retry's when the retry detected.
	// An undetected line carries the failed proposed expansion's
	// counters too (a failed retry's are not recorded), so summing them
	// over the whole trace exceeds the ctr_*_total sums, which count MOT
	// detections only.
	CtrDet   int  `json:"ctr_det,omitempty"`
	CtrConf  int  `json:"ctr_conf,omitempty"`
	CtrExtra int  `json:"ctr_extra,omitempty"`
	PrunedC  bool `json:"pruned_condition_c,omitempty"`
	// Identified marks Section 3.2 identifications (detected from the
	// collected implication information alone, no expansion).
	Identified bool `json:"identified,omitempty"`
	// Resim summarizes the fault's resimulation passes (vector passes,
	// frames, gate evaluations and lanes packed; see ResimTrace).
	// Deterministic for a given configuration; omitted when the fault
	// never resimulated.
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

// traceEvent builds the trace line for one outcome and its record.
func (s *Simulator) traceEvent(o *FaultOutcome, r *faultRecord) TraceEvent {
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
	w := &r.work
	resim := ResimTrace{int(w.ResimVectorPasses), int(w.ResimVectorFrames), int(w.ResimGateEvals), r.resimLanes}
	if resim != (ResimTrace{}) {
		ev.Resim = &resim
	}
	if sim := r.simTrace(); sim != (SimTrace{}) {
		ev.Sim = &sim
	}
	if s.cfg.TraceTimings {
		ev.Timing = &StageNS{w.Step0NS, w.CollectNS, w.ImplyNS, w.ExpandNS, w.ResimNS, w.TotalNS}
	}
	return ev
}

// writeTrace emits one JSONL event per fault to Config.TraceWriter, in
// fault-list order. It runs after the fault loop completes — never from
// worker goroutines — so the output is identical for any worker count.
// recs is indexed like res.Outcomes (nil exactly when no trace is
// requested).
func (s *Simulator) writeTrace(res *Result, recs []faultRecord) error {
	if s.cfg.TraceWriter == nil {
		return nil
	}
	bw := bufio.NewWriter(s.cfg.TraceWriter)
	for k := range res.Outcomes {
		data, err := json.Marshal(s.traceEvent(&res.Outcomes[k], &recs[k]))
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
