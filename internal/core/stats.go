package core

import (
	"time"

	"repro/internal/metrics"
)

// StageNS is a per-fault (or per-run delta) stage-time breakdown in
// nanoseconds. Step0 covers the serial conventional resimulation plus
// the condition (C) profile; Collect covers pair collection including
// the implication runs it performs (Imply is the implication share of
// Collect, not an additional stage); Expand and Resim cover Procedure 2
// and the Section 3.4 resimulation including the portfolio retry.
type StageNS struct {
	Step0   int64 `json:"step0_ns"`
	Collect int64 `json:"collect_ns"`
	Imply   int64 `json:"imply_ns"`
	Expand  int64 `json:"expand_ns"`
	Resim   int64 `json:"resim_ns"`
	Total   int64 `json:"total_ns"`
}

// sub returns the component-wise difference s - before.
func (s StageNS) sub(before StageNS) StageNS {
	return StageNS{
		Step0:   s.Step0 - before.Step0,
		Collect: s.Collect - before.Collect,
		Imply:   s.Imply - before.Imply,
		Expand:  s.Expand - before.Expand,
		Resim:   s.Resim - before.Resim,
		Total:   s.Total - before.Total,
	}
}

// PoolStats instruments the PR 2 pooling layer: how often the pooled
// resources were reused versus freshly allocated, and the arena
// high-water marks. Counts are summed across RunParallel workers; peaks
// take the maximum. Reference-mode runs record nothing here (that path
// allocates per pair by design).
type PoolStats struct {
	// FrameReuses/FrameAllocs count implication-frame acquisitions (pair
	// frame and deep-backward frames) served by ResetFault on a pooled
	// frame versus a fresh implic.New.
	FrameReuses int64 `json:"frame_reuses"`
	FrameAllocs int64 `json:"frame_allocs"`
	// TraceReuses/TraceAllocs count faulty-trace acquisitions served by
	// the pooled RunFaultInto trace versus a fresh NewTrace.
	TraceReuses int64 `json:"trace_reuses"`
	TraceAllocs int64 `json:"trace_allocs"`
	// SVArenaPeak is the high-water mark of the per-fault sv-assignment
	// arena (entries); SVIdxArenaPeak of the sv-index arena.
	SVArenaPeak    int64 `json:"sv_arena_peak"`
	SVIdxArenaPeak int64 `json:"sv_idx_arena_peak"`
	// SeqLivePeak is the largest number of sequences one expansion
	// stood for (below twice the N_STATES budget).
	SeqLivePeak int64 `json:"seq_live_peak"`
}

// merge folds other into p: counters add, peaks take the maximum.
func (p *PoolStats) merge(other PoolStats) {
	p.FrameReuses += other.FrameReuses
	p.FrameAllocs += other.FrameAllocs
	p.TraceReuses += other.TraceReuses
	p.TraceAllocs += other.TraceAllocs
	p.SVArenaPeak = max64(p.SVArenaPeak, other.SVArenaPeak)
	p.SVIdxArenaPeak = max64(p.SVIdxArenaPeak, other.SVIdxArenaPeak)
	p.SeqLivePeak = max64(p.SeqLivePeak, other.SeqLivePeak)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runStats is the per-worker instrumentation accumulator. Each
// Simulator that executes faults owns exactly one (RunParallel gives
// every worker its own), so all fields are plain — no atomics on the
// hot path. Totals merge into Result.Stages once the run completes.
type runStats struct {
	times      StageNS
	implyCalls int64
	// implyLaneEvals counts the gates evaluated by lane implication
	// passes (see Stages.ImplyLaneEvals).
	implyLaneEvals int64
	motFaults      int64
	// resimVectorPasses/resimVectorFrames/resimGateEvals count the
	// bit-parallel resimulation passes, the frames and the gates they
	// evaluated (see Stages).
	resimVectorPasses int64
	resimVectorFrames int64
	resimGateEvals    int64
	pool              PoolStats
}

// stageField selects the accumulator tick targets.
type stageField uint8

const (
	stageStep0 stageField = iota
	stageCollect
	stageExpand
	stageResim
)

// tick accumulates the monotonic time since *last into the selected
// stage and advances *last. A nil receiver (metrics off) is a no-op and
// performs no clock read.
func (rs *runStats) tick(last *time.Time, f stageField) {
	if rs == nil {
		return
	}
	now := time.Now()
	d := int64(now.Sub(*last))
	switch f {
	case stageStep0:
		rs.times.Step0 += d
	case stageCollect:
		rs.times.Collect += d
	case stageExpand:
		rs.times.Expand += d
	case stageResim:
		rs.times.Resim += d
	}
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
	// ConeGatesPerFault is the distribution of active-cone sizes (gates
	// in the sequential fanout closure of the fault site) over the faults
	// that entered the per-fault pipeline — the share of the circuit
	// faulty simulation actually visits per fault.
	ConeGatesPerFault *metrics.Histogram
	// ResimLanesPerPass is the distribution of lane occupancy (sequences
	// packed per word) over bit-parallel resimulation passes — how full
	// the 64-lane words run in practice. Empty when
	// Config.BitParallelResim is off.
	ResimLanesPerPass *metrics.Histogram
	// EventsPerFrame is the distribution of node value changes (events)
	// per event-driven sparse frame — how little of the circuit a faulty
	// frame actually perturbs. Empty when Config.EventSim is off (the
	// level-order path does not observe per-frame distributions).
	EventsPerFrame *metrics.Histogram
	// GatesVisitedPerFrame is the distribution of gate evaluations per
	// event-driven sparse frame — the work left after event confinement,
	// versus the cone sizes in ConeGatesPerFault. Empty when
	// Config.EventSim is off.
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
		ConeGatesPerFault:    metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		ResimLanesPerPass:    metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		EventsPerFrame:       metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		GatesVisitedPerFrame: metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
	}
}

// observeFault records one completed per-fault pipeline execution.
func (m *RunMetrics) observeFault(o *FaultOutcome, totalNS, coneGates int64) {
	m.PairsPerFault.Observe(int64(o.Pairs))
	m.ExpansionsPerFault.Observe(int64(o.Expansions))
	m.SequencesAtStop.Observe(int64(o.Sequences))
	m.FaultTimeNS.Observe(totalNS)
	m.ConeGatesPerFault.Observe(coneGates)
}

// exemplarFault attaches a span-sampled fault's observations as the
// exemplars of the buckets they landed in, linking each per-fault
// histogram back to the fault name and its trace span. Called only for
// faults that carry a live span, so the unsampled hot path never
// allocates exemplar labels.
func (m *RunMetrics) exemplarFault(o *FaultOutcome, totalNS, coneGates int64, faultName, spanHex string) {
	fl := metrics.Label{Key: "fault", Val: faultName}
	sl := metrics.Label{Key: "span_id", Val: spanHex}
	m.PairsPerFault.SetExemplar(int64(o.Pairs), fl, sl)
	m.ExpansionsPerFault.SetExemplar(int64(o.Expansions), fl, sl)
	m.SequencesAtStop.SetExemplar(int64(o.Sequences), fl, sl)
	m.FaultTimeNS.SetExemplar(totalNS, fl, sl)
	m.ConeGatesPerFault.SetExemplar(coneGates, fl, sl)
}

// beginRun resets the per-run instrumentation state on s according to
// the configuration and attaches the run histograms to res. Serial Run
// and the RunParallel parent both call it; parallel workers receive
// their own runStats and share the parent's histograms.
func (s *Simulator) beginRun(res *Result) {
	if !s.cfg.Metrics {
		s.stats, s.hist = nil, nil
		s.sim.SetFrameHists(nil, nil)
		return
	}
	s.stats = &runStats{}
	s.hist = newRunMetrics()
	res.Metrics = s.hist
	s.sim.ResetStats()
	s.sim.SetFrameHists(s.hist.EventsPerFrame, s.hist.GatesVisitedPerFrame)
}

// mergeStats folds one worker's accumulator into the run totals.
func (st *Stages) mergeStats(rs *runStats) {
	if rs == nil {
		return
	}
	st.Step0Time += time.Duration(rs.times.Step0)
	st.CollectTime += time.Duration(rs.times.Collect)
	st.ExpandTime += time.Duration(rs.times.Expand)
	st.ResimTime += time.Duration(rs.times.Resim)
	st.ImplyTime += time.Duration(rs.times.Imply)
	st.ImplyCalls += rs.implyCalls
	st.ImplyLaneEvals += rs.implyLaneEvals
	st.ResimVectorPasses += rs.resimVectorPasses
	st.ResimVectorFrames += rs.resimVectorFrames
	st.ResimGateEvals += rs.resimGateEvals
	st.MOTFaults += int(rs.motFaults)
	st.Pool.merge(rs.pool)
}
