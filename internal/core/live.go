package core

import (
	"sync/atomic"

	"repro/internal/seqsim"
)

// defaultLiveEvery is the publication cadence when Config.LiveEvery is
// zero: each executing worker folds its pending deltas into the shared
// LiveStats after this many faults. The cadence keeps every atomic off
// the per-fault hot path — between publications a worker touches only
// its own plain-field accumulators — while a scrape still sees an
// in-flight run move every few milliseconds on the suite circuits.
const defaultLiveEvery = 32

// LiveStats is a concurrency-safe view of one or more in-flight
// whole-list runs, updated on a coarse per-worker cadence (see
// Config.Live and Config.LiveEvery) and readable at any time with
// Snapshot. Every field is monotonically non-decreasing while runs
// execute, so scraping it as Prometheus counters is sound. After a run
// returns, the final values equal the merged Result/Result.Stages
// counters of all runs published into it.
//
// The zero value is ready to use. Multiple runs may share one LiveStats
// (cmd/mottables publishes the whole suite into one); the counters then
// aggregate across runs.
type LiveStats struct {
	runsStarted atomic.Int64
	runsDone    atomic.Int64

	faultsTotal atomic.Int64
	faultsDone  atomic.Int64
	conv        atomic.Int64
	mot         atomic.Int64
	prunedC     atomic.Int64

	prescreenPasses    atomic.Int64
	prescreenDropped   atomic.Int64
	prescreenPrunedC   atomic.Int64
	prescreenFrames    atomic.Int64
	prescreenGateEvals atomic.Int64

	motFaults  atomic.Int64
	pairs      atomic.Int64
	expansions atomic.Int64
	sequences  atomic.Int64

	implyCalls     atomic.Int64
	implyLaneEvals atomic.Int64
	implyNS        atomic.Int64

	resimVectorPasses atomic.Int64
	resimVectorFrames atomic.Int64
	resimGateEvals    atomic.Int64

	step0NS   atomic.Int64
	collectNS atomic.Int64
	expandNS  atomic.Int64
	resimNS   atomic.Int64
	totalNS   atomic.Int64

	deltaFrames    atomic.Int64
	deltaGateEvals atomic.Int64
	fullFrames     atomic.Int64
	eventFrames    atomic.Int64
	eventGateEvals atomic.Int64
	events         atomic.Int64

	// metrics publishes the current run's shared per-fault histograms
	// (concurrency-safe, observed directly by workers) so a scraper can
	// expose them mid-run. Set by beginRun when Config.Metrics is on.
	metrics atomic.Pointer[RunMetrics]
}

// Metrics returns the per-fault histograms of the most recently started
// run publishing into l, or nil before the first metrics-enabled run.
// The histograms are safe to snapshot while the run keeps observing.
func (l *LiveStats) Metrics() *RunMetrics { return l.metrics.Load() }

// LiveSnapshot is a point-in-time copy of a LiveStats, in plain fields.
// All counter fields are deterministic for a given circuit, sequence,
// configuration and fault list (scheduling-invariant); the *NS fields
// are wall-clock measurements.
type LiveSnapshot struct {
	RunsStarted int64 `json:"runs_started"`
	RunsDone    int64 `json:"runs_done"`

	FaultsTotal      int64 `json:"faults_total"`
	FaultsDone       int64 `json:"faults_done"`
	Conv             int64 `json:"detected_conventional"`
	MOT              int64 `json:"detected_mot"`
	PrunedConditionC int64 `json:"pruned_condition_c"`

	PrescreenPasses    int64 `json:"prescreen_passes"`
	PrescreenDropped   int64 `json:"prescreen_dropped"`
	PrescreenPrunedC   int64 `json:"prescreen_pruned_c"`
	PrescreenFrames    int64 `json:"prescreen_frames"`
	PrescreenGateEvals int64 `json:"prescreen_gate_evals"`

	MOTFaults  int64 `json:"mot_faults"`
	Pairs      int64 `json:"pairs"`
	Expansions int64 `json:"expansions"`
	Sequences  int64 `json:"sequences"`

	ImplyCalls     int64 `json:"imply_calls"`
	ImplyLaneEvals int64 `json:"imply_lane_evals"`
	ImplyNS        int64 `json:"imply_ns"`

	ResimVectorPasses    int64 `json:"resim_vector_passes"`
	ResimVectorFrames    int64 `json:"resim_vector_frames"`
	ResimGateEvals       int64 `json:"resim_gate_evals"`
	ResimSerialFallbacks int64 `json:"resim_serial_fallbacks"` // always 0, see Stages

	Step0NS   int64 `json:"step0_ns"`
	CollectNS int64 `json:"collect_ns"`
	ExpandNS  int64 `json:"expand_ns"`
	ResimNS   int64 `json:"resim_ns"`
	TotalNS   int64 `json:"total_ns"`

	DeltaFrames    int64 `json:"delta_frames"`
	DeltaGateEvals int64 `json:"delta_gate_evals"`
	FullFrames     int64 `json:"full_frames"`
	EventFrames    int64 `json:"event_frames"`
	EventGateEvals int64 `json:"event_gate_evals"`
	Events         int64 `json:"events"`
}

// Snapshot copies the current state. Individual fields are read with
// independent atomic loads, so a snapshot taken mid-run may be slightly
// ahead on one counter relative to another; each field on its own never
// goes backward between snapshots.
func (l *LiveStats) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		RunsStarted:        l.runsStarted.Load(),
		RunsDone:           l.runsDone.Load(),
		FaultsTotal:        l.faultsTotal.Load(),
		FaultsDone:         l.faultsDone.Load(),
		Conv:               l.conv.Load(),
		MOT:                l.mot.Load(),
		PrunedConditionC:   l.prunedC.Load(),
		PrescreenPasses:    l.prescreenPasses.Load(),
		PrescreenDropped:   l.prescreenDropped.Load(),
		PrescreenPrunedC:   l.prescreenPrunedC.Load(),
		PrescreenFrames:    l.prescreenFrames.Load(),
		PrescreenGateEvals: l.prescreenGateEvals.Load(),
		MOTFaults:          l.motFaults.Load(),
		Pairs:              l.pairs.Load(),
		Expansions:         l.expansions.Load(),
		Sequences:          l.sequences.Load(),
		ImplyCalls:         l.implyCalls.Load(),
		ImplyLaneEvals:     l.implyLaneEvals.Load(),
		ImplyNS:            l.implyNS.Load(),
		ResimVectorPasses:  l.resimVectorPasses.Load(),
		ResimVectorFrames:  l.resimVectorFrames.Load(),
		ResimGateEvals:     l.resimGateEvals.Load(),
		Step0NS:            l.step0NS.Load(),
		CollectNS:          l.collectNS.Load(),
		ExpandNS:           l.expandNS.Load(),
		ResimNS:            l.resimNS.Load(),
		TotalNS:            l.totalNS.Load(),
		DeltaFrames:        l.deltaFrames.Load(),
		DeltaGateEvals:     l.deltaGateEvals.Load(),
		FullFrames:         l.fullFrames.Load(),
		EventFrames:        l.eventFrames.Load(),
		EventGateEvals:     l.eventGateEvals.Load(),
		Events:             l.events.Load(),
	}
}

// Undetected returns the faults classified so far as undetected.
func (s LiveSnapshot) Undetected() int64 { return s.FaultsDone - s.Conv - s.MOT }

// beginLive records a run starting against the shared stats: the run's
// fault-list size and, with metrics on, the run's histogram set.
func (s *Simulator) beginLive(total int) {
	live := s.cfg.Live
	if live == nil {
		return
	}
	live.runsStarted.Add(1)
	live.faultsTotal.Add(int64(total))
	if s.hist != nil {
		live.metrics.Store(s.hist)
	}
}

// publishPrescreen folds the completed prescreen stage into the live
// stats. In RunParallel the faults the prescreen settles (dropped or
// lane-pruned by condition (C)) never reach a worker, so their
// classification is published here as well; the serial Run loop instead
// routes them through its publisher like any other outcome (settledDone
// false).
func (s *Simulator) publishPrescreen(res *Result, settledDone bool) {
	live := s.cfg.Live
	if live == nil {
		return
	}
	st := &res.Stages
	live.prescreenPasses.Add(int64(st.PrescreenPasses))
	live.prescreenDropped.Add(int64(st.PrescreenDropped))
	live.prescreenPrunedC.Add(int64(st.PrescreenPrunedC))
	live.prescreenFrames.Add(st.PrescreenFrames)
	live.prescreenGateEvals.Add(st.PrescreenGateEvals)
	if settledDone {
		live.faultsDone.Add(int64(st.PrescreenDropped + st.PrescreenPrunedC))
		live.conv.Add(int64(st.PrescreenDropped))
		live.prunedC.Add(int64(st.PrescreenPrunedC))
	}
}

// endLive marks one run's publications complete.
func (l *LiveStats) endLive() {
	if l != nil {
		l.runsDone.Add(1)
	}
}

// livePublisher accumulates one executing goroutine's deltas between
// publications. All fields are plain — the publisher is owned by a
// single worker — and only flush touches the shared atomics, so the
// per-fault cost with live stats enabled is a few plain adds plus one
// branch, and with them disabled a single nil check in the run loop.
type livePublisher struct {
	live  *LiveStats
	every int
	n     int

	done, conv, mot, prunedC     int64
	motFaults                    int64
	pairs, expansions, sequences int64

	// Published baselines for the cumulative per-worker accumulators.
	lastTimes   StageNS
	lastImply   int64
	lastImplyLE int64
	lastResimVP int64
	lastResimVF int64
	lastResimGE int64
	lastSim     seqsim.SimStats
}

// newLivePublisher returns a publisher for this simulator's goroutine,
// or nil when live stats are off.
func (s *Simulator) newLivePublisher() *livePublisher {
	if s.cfg.Live == nil {
		return nil
	}
	every := s.cfg.LiveEvery
	if every <= 0 {
		every = defaultLiveEvery
	}
	return &livePublisher{live: s.cfg.Live, every: every}
}

// observe records one classified fault. entered reports whether the
// fault ran the per-fault MOT pipeline (false for prescreen-settled
// faults routed through the serial loop).
func (p *livePublisher) observe(s *Simulator, o *FaultOutcome, entered bool) {
	if p == nil {
		return
	}
	p.done++
	switch o.Outcome {
	case DetectedConventional:
		p.conv++
	case DetectedMOT:
		p.mot++
	default:
		if o.FailedConditionC {
			p.prunedC++
		}
	}
	if entered {
		p.motFaults++
	}
	p.pairs += int64(o.Pairs)
	p.expansions += int64(o.Expansions)
	p.sequences += int64(o.Sequences)
	p.n++
	if p.n >= p.every {
		p.flush(s)
	}
}

// flush publishes the pending deltas. Safe to call at any point
// (including with nothing pending); Run and RunParallel call it once
// more after their fault loops so the final snapshot equals the merged
// Result exactly.
func (p *livePublisher) flush(s *Simulator) {
	if p == nil {
		return
	}
	l := p.live
	l.faultsDone.Add(p.done)
	l.conv.Add(p.conv)
	l.mot.Add(p.mot)
	l.prunedC.Add(p.prunedC)
	l.motFaults.Add(p.motFaults)
	l.pairs.Add(p.pairs)
	l.expansions.Add(p.expansions)
	l.sequences.Add(p.sequences)
	p.done, p.conv, p.mot, p.prunedC, p.motFaults = 0, 0, 0, 0, 0
	p.pairs, p.expansions, p.sequences = 0, 0, 0
	p.n = 0
	if st := s.stats; st != nil {
		d := st.times.sub(p.lastTimes)
		p.lastTimes = st.times
		l.step0NS.Add(d.Step0)
		l.collectNS.Add(d.Collect)
		l.expandNS.Add(d.Expand)
		l.resimNS.Add(d.Resim)
		l.totalNS.Add(d.Total)
		l.implyNS.Add(d.Imply)
		l.implyCalls.Add(st.implyCalls - p.lastImply)
		l.implyLaneEvals.Add(st.implyLaneEvals - p.lastImplyLE)
		p.lastImply, p.lastImplyLE = st.implyCalls, st.implyLaneEvals
		l.resimVectorPasses.Add(st.resimVectorPasses - p.lastResimVP)
		l.resimVectorFrames.Add(st.resimVectorFrames - p.lastResimVF)
		l.resimGateEvals.Add(st.resimGateEvals - p.lastResimGE)
		p.lastResimVP, p.lastResimVF = st.resimVectorPasses, st.resimVectorFrames
		p.lastResimGE = st.resimGateEvals

		sim := s.sim.Stats()
		l.deltaFrames.Add(sim.DeltaFrames - p.lastSim.DeltaFrames)
		l.deltaGateEvals.Add(sim.DeltaGateEvals - p.lastSim.DeltaGateEvals)
		l.fullFrames.Add(sim.FullFrames - p.lastSim.FullFrames)
		l.eventFrames.Add(sim.EventFrames - p.lastSim.EventFrames)
		l.eventGateEvals.Add(sim.EventGateEvals - p.lastSim.EventGateEvals)
		l.events.Add(sim.Events - p.lastSim.Events)
		p.lastSim = sim
	}
}
