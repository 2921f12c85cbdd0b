package core

import (
	"sync"
	"sync/atomic"
)

// defaultLiveEvery is the publication cadence when Config.LiveEvery is
// zero: each executing worker folds its pending delta into the shared
// LiveStats after this many faults. The cadence keeps the lock off the
// per-fault hot path — between publications a worker touches only its
// own plain-field accumulator — while a scrape still sees an in-flight
// run move every few milliseconds on the suite circuits.
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
	mu sync.Mutex
	s  LiveSnapshot

	// metrics publishes the current run's shared per-fault histograms
	// (concurrency-safe, observed directly by workers) so a scraper can
	// expose them mid-run. Set by beginLive when Config.Metrics is on.
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
	FaultsTotal int64 `json:"faults_total"`

	// Tally counts the faults classified so far.
	Tally
	PrescreenCounts
	// Work sums the per-fault work of the pipeline faults; it stays 0
	// with Config.Metrics off.
	Work
}

// Snapshot copies the current state. Every publication folds in under
// one lock, so a snapshot is consistent across counters: FaultsDone is
// never behind Conv + MOT.
func (l *LiveStats) Snapshot() LiveSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s
}

// add folds a delta into l; a nil l (live stats off) ignores it.
func (l *LiveStats) add(d LiveSnapshot) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.s.Add(d)
	l.mu.Unlock()
}

// beginLive records a run starting against the shared stats: the run's
// fault-list size and, with metrics on, the run's histogram set.
func (s *Simulator) beginLive(total int) {
	live := s.cfg.Live
	if live == nil {
		return
	}
	live.add(LiveSnapshot{RunsStarted: 1, FaultsTotal: int64(total)})
	if s.hist != nil {
		live.metrics.Store(s.hist)
	}
}

// endLive marks one run's publications complete.
func (l *LiveStats) endLive() { l.add(LiveSnapshot{RunsDone: 1}) }

// livePublisher is one fault-loop worker's accumulator of the faults it
// ran: pending is the delta since the last publication, total the sum
// of every published delta, which the run merges into its Result.
// Both are plain fields owned by the worker; only flush takes the
// shared lock.
type livePublisher struct {
	live           *LiveStats
	every, n       int
	metrics        bool
	pending, total LiveSnapshot
}

// init configures the publisher for a run.
func (p *livePublisher) init(cfg Config) {
	p.live, p.metrics, p.every = cfg.Live, cfg.Metrics, cfg.LiveEvery
	if p.every <= 0 {
		p.every = defaultLiveEvery
	}
}

// observe folds one fault that ran the per-fault pipeline: its outcome
// and, with metrics on, its record.
func (p *livePublisher) observe(o *FaultOutcome, r *faultRecord) {
	p.pending.count(o, true)
	if p.metrics {
		p.pending.Work.Add(r.work)
	}
	if p.n++; p.n >= p.every {
		p.flush()
	}
}

// flush publishes the pending delta. Safe to call at any point
// (including with nothing pending); every worker calls it once more
// after its fault loop, so the final snapshot equals the merged Result
// exactly.
func (p *livePublisher) flush() {
	p.total.Add(p.pending)
	p.live.add(p.pending)
	p.pending, p.n = LiveSnapshot{}, 0
}
