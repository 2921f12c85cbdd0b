package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// StageNS is a per-fault stage-time breakdown in nanoseconds. Step0
// covers the serial conventional resimulation plus the condition (C)
// profile; Collect covers pair collection including the implication
// runs it performs (Imply is the implication share of Collect, not an
// additional stage); Expand and Resim cover Procedure 2 and the
// Section 3.4 resimulation including the portfolio retry.
type StageNS struct {
	Step0   int64 `json:"step0_ns"`
	Collect int64 `json:"collect_ns"`
	Imply   int64 `json:"imply_ns"`
	Expand  int64 `json:"expand_ns"`
	Resim   int64 `json:"resim_ns"`
	Total   int64 `json:"total_ns"`
}

// faultRecord is what one SimulateFault call measured: the one
// per-fault observation every reporting sink reads (Result.Stages and
// the live snapshot through livePublisher, the JSONL trace, the fault
// span's attributes and the run histograms). The pipeline's
// instrumentation sites write it directly; SimulateFault resets it per
// fault. Every count is deterministic for a given circuit, sequence,
// configuration and fault; the stage times are zero unless
// Config.Metrics is on (the clock is read only then).
type faultRecord struct {
	// work is the fault's share of the run counters.
	work Work
	// resimLanes sums the lanes its resimulation passes packed.
	resimLanes int
}

// simTrace is the record's step-0 summary as the trace and the span
// attributes report it.
func (r *faultRecord) simTrace() SimTrace {
	return SimTrace{Frames: r.work.EventFrames, Events: r.work.Events, GateEvals: r.work.EventGateEvals}
}

// tick adds the time since *last to the stage counter *ns and advances
// *last. With Config.Metrics off it is a no-op and reads no clock.
func (s *Simulator) tick(last *time.Time, ns *int64) {
	if !s.cfg.Metrics {
		return
	}
	now := time.Now()
	*ns += int64(now.Sub(*last))
	*last = now
}

// RunMetrics holds the per-fault distribution histograms of one run.
// The histograms are concurrency-safe (see internal/metrics) and are
// shared by every RunParallel worker; observations cover exactly the
// faults that entered the per-fault MOT pipeline (prescreen-dropped
// faults never reach it).
type RunMetrics struct {
	// PairsPerFault is the distribution of candidate (time unit, state
	// variable) pairs collected per fault.
	PairsPerFault *metrics.Histogram
	// ExpansionsPerFault is the distribution of sequence-duplicating
	// (phase 2) expansions per fault.
	ExpansionsPerFault *metrics.Histogram
	// SequencesAtStop is the distribution of state-sequence counts when
	// each fault's expansion stopped.
	SequencesAtStop *metrics.Histogram
	// FaultTimeNS is the distribution of per-fault wall time
	// (SimulateFault, nanoseconds).
	FaultTimeNS *metrics.Histogram
	// ResimLanesPerPass is the distribution of lane occupancy (sequences
	// packed per word) over bit-parallel resimulation passes — how full
	// the 64-lane words run in practice.
	ResimLanesPerPass *metrics.Histogram
	// EventsPerFrame is the distribution of node value changes (events)
	// per event-driven sparse frame — how little of the circuit a faulty
	// frame actually perturbs.
	EventsPerFrame *metrics.Histogram
	// GatesVisitedPerFrame is the distribution of gate evaluations per
	// event-driven sparse frame — the work step 0 does per frame, which
	// follows the fault's divergence rather than the circuit size.
	GatesVisitedPerFrame *metrics.Histogram
}

// newRunMetrics builds the run histograms with power-of-two bucket
// layouts sized for the suite circuits.
func newRunMetrics() *RunMetrics {
	return &RunMetrics{
		PairsPerFault:        metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		ExpansionsPerFault:   metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		SequencesAtStop:      metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		FaultTimeNS:          metrics.NewHistogram(metrics.ExpBounds(1024, 4, 14)...),
		ResimLanesPerPass:    metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		EventsPerFrame:       metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		GatesVisitedPerFrame: metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
	}
}

// observeHist feeds the record of the fault s just simulated to the
// run histograms, and to their exemplars when the fault is
// span-sampled. A no-op with metrics off.
func (s *Simulator) observeHist(o *FaultOutcome) {
	m, r := s.hist, &s.rec
	if m == nil {
		return
	}
	m.PairsPerFault.Observe(int64(o.Pairs))
	m.ExpansionsPerFault.Observe(int64(o.Expansions))
	m.SequencesAtStop.Observe(int64(o.Sequences))
	m.FaultTimeNS.Observe(r.work.TotalNS)
	if s.span == 0 {
		// Unsampled: the hot path never allocates exemplar labels.
		return
	}
	// Link the fault's bucket in each histogram back to the fault and its
	// span via OpenMetrics exemplars.
	fl := metrics.Label{Key: "fault", Val: o.Fault.Name(s.c)}
	sl := metrics.Label{Key: "span_id", Val: fmt.Sprintf("%016x", uint64(s.span))}
	m.PairsPerFault.SetExemplar(int64(o.Pairs), fl, sl)
	m.ExpansionsPerFault.SetExemplar(int64(o.Expansions), fl, sl)
	m.SequencesAtStop.SetExemplar(int64(o.Sequences), fl, sl)
	m.FaultTimeNS.SetExemplar(r.work.TotalNS, fl, sl)
}

// beginRun resets the per-run instrumentation state on s according to
// the configuration and attaches the run histograms to res; fault-loop
// workers cloned afterwards share them.
func (s *Simulator) beginRun(res *Result) {
	if !s.cfg.Metrics {
		s.hist = nil
		s.sim.SetFrameHists(nil, nil)
		return
	}
	s.hist = newRunMetrics()
	res.Metrics = s.hist
	s.sim.SetFrameHists(s.hist.EventsPerFrame, s.hist.GatesVisitedPerFrame)
}
