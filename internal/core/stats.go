package core

import (
	"fmt"
	"slices"
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

// Hist names one run histogram: its row of the histogram table and its
// index in RunMetrics.
type Hist int

// The run histograms, in exposition order.
const (
	PairsPerFault        Hist = iota // candidate pairs collected per fault
	ExpansionsPerFault               // phase 2 (sequence-duplicating) expansions per fault
	SequencesAtStop                  // state sequences when each fault's expansion stopped
	ResimLanesPerPass                // sequences packed per bit-parallel resimulation pass
	EventsPerFrame                   // node value changes per event-driven sparse frame
	GatesVisitedPerFrame             // gate evaluations per event-driven sparse frame
	FaultTimeNS                      // per-fault wall time of SimulateFault, in nanoseconds
	numHists
)

// HistDesc describes one run histogram: its /metrics family (without
// the exposition prefix), HELP text, text-summary label and unit
// (nanoseconds are exposed in seconds and printed as durations).
// PerFault rows observe each pipeline fault once, so their count is
// MOTFaults; the others observe resimulation passes or sparse frames.
type HistDesc struct {
	Family, Help, Label string
	Unit                Unit
	PerFault            bool
	bounds              []int64 // bucket upper bounds
}

// hists is the histogram table, indexed by Hist.
var hists = [numHists]HistDesc{
	PairsPerFault:        {"pairs_per_fault", "Candidate pairs collected per fault.", "pairs/fault", Count, true, metrics.ExpBounds(1, 2, 14)},
	ExpansionsPerFault:   {"expansions_per_fault", "Phase-2 expansions per fault.", "expansions/fault", Count, true, metrics.ExpBounds(1, 2, 10)},
	SequencesAtStop:      {"sequences_at_stop", "State sequences when expansion stopped.", "sequences @stop", Count, true, metrics.ExpBounds(1, 2, 10)},
	ResimLanesPerPass:    {"resim_lanes_per_pass", "Sequences packed per bit-parallel resimulation pass.", "resim lanes/pass", Count, false, metrics.ExpBounds(1, 2, 10)},
	EventsPerFrame:       {"events_per_frame", "Node value changes per event-driven sparse frame.", "events/frame", Count, false, metrics.ExpBounds(1, 2, 14)},
	GatesVisitedPerFrame: {"gates_visited_per_frame", "Gate evaluations per event-driven sparse frame.", "gates/frame", Count, false, metrics.ExpBounds(1, 2, 14)},
	FaultTimeNS:          {"fault_seconds", "Per-fault wall time.", "fault time", Nanoseconds, true, metrics.ExpBounds(1024, 4, 14)},
}

// Hists returns the histogram table, indexed by Hist.
func Hists() []HistDesc { return slices.Clone(hists[:]) }

// RunMetrics holds the histograms of one run, indexed by Hist. They are
// concurrency-safe (see internal/metrics) and shared by every
// RunParallel worker.
type RunMetrics [numHists]*metrics.Histogram

// newRunMetrics builds the run histograms from the table.
func newRunMetrics() *RunMetrics {
	var m RunMetrics
	for h := range hists {
		m[h] = metrics.NewHistogram(hists[h].bounds...)
	}
	return &m
}

// observeHist feeds the fault s just simulated to the per-fault
// histograms, and to their exemplars when the fault is span-sampled. A
// no-op with metrics off.
func (s *Simulator) observeHist(o *FaultOutcome) {
	m := s.hist
	if m == nil {
		return
	}
	v := [numHists]int64{
		PairsPerFault:      int64(o.Pairs),
		ExpansionsPerFault: int64(o.Expansions),
		SequencesAtStop:    int64(o.Sequences),
		FaultTimeNS:        s.rec.work.TotalNS,
	}
	// A span-sampled fault's exemplars link each bucket back to the
	// fault and its span; an unsampled one allocates no labels.
	var labels []metrics.Label
	if s.span != 0 {
		labels = []metrics.Label{{Key: "fault", Val: o.Fault.Name(s.c)},
			{Key: "span_id", Val: fmt.Sprintf("%016x", uint64(s.span))}}
	}
	for h := range hists {
		if hists[h].PerFault {
			m[h].Observe(v[h])
			if labels != nil {
				m[h].SetExemplar(v[h], labels...)
			}
		}
	}
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
	s.sim.SetFrameHists(s.hist[EventsPerFrame], s.hist[GatesVisitedPerFrame])
}
