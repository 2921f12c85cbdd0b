package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitsim"
	"repro/internal/fault"
	"repro/internal/seqsim"
)

// screen is the prescreen's per-fault classification: pre[k] carries
// the conventional result (Detected entries the detection site,
// identical to the serial simulator's) and failsC[k] marks an
// undetected fault that fails condition (C) in its lane.
type screen struct {
	pre    []seqsim.FaultResult
	failsC []bool
}

// outcome returns the outcome the prescreen settles for fault k without
// the per-fault pipeline, and whether it settles one: a conventional
// detection, or a (C) failure — the outcome SimulateFault's own step 0
// and condition (C) check produce for that fault. The zero screen
// (prescreen off) settles nothing.
func (sc screen) outcome(k int, f fault.Fault) (FaultOutcome, bool) {
	switch {
	case sc.pre == nil:
		return FaultOutcome{}, false
	case sc.pre[k].Detected:
		return FaultOutcome{Fault: f, Outcome: DetectedConventional, At: sc.pre[k].At}, true
	case sc.failsC[k]:
		return FaultOutcome{Fault: f, FailedConditionC: true}, true
	}
	return FaultOutcome{}, false
}

// prescreen runs the batched bit-parallel stage over the whole fault
// list when Config.Prescreen is on, recording the stage counters into
// res. Every lane reports its conventional detection and, when
// undetected, its condition (C) verdict, so only the faults that are
// undetected and pass (C) enter the per-fault MOT pipeline. It returns
// the zero screen when the prescreen is disabled or there is nothing to
// screen. Batches are distributed over up to `workers` goroutines and
// stop once ctx is done. With tracing on (sc non-nil) the stage gets a
// span under the run span and every bit-parallel batch a span keyed by
// its batch index.
func (s *Simulator) prescreen(ctx context.Context, faults []fault.Fault, workers int, res *Result, sc *spanScope) (screen, error) {
	if !s.cfg.Prescreen || len(faults) == 0 {
		return screen{}, nil
	}
	start := time.Now()
	preID := sc.beginStage("prescreen")
	pre, failsC, st, err := bitsim.RunConditionC(ctx, s.c, s.T, s.good, faults, workers,
		bitsim.Trace{Tracer: s.cfg.Tracer, Parent: preID})
	sc.endStage()
	if err != nil {
		return screen{}, fmt.Errorf("core: prescreen: %w", err)
	}
	res.Stages.PrescreenCounts = PrescreenCounts{
		PrescreenPasses:      st.Batches,
		PrescreenFrames:      st.Frames,
		PrescreenSavedFrames: st.SavedFrames,
		PrescreenGateEvals:   st.GateEvals,
	}
	res.Stages.PrescreenTime = time.Since(start)
	return screen{pre: pre, failsC: failsC}, nil
}
