package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Window is a rolling-window aggregator: a ring of fixed-interval
// buckets, each holding a small fixed-bound histogram, merged at read
// time into rates and quantile estimates over the most recent span
// (typically the last minute and the last five). It answers the
// question cumulative histograms cannot: "did the last minute get
// slow?".
//
// Observation is lock-free — bucket selection, a handful of atomic
// adds, and min/max CAS loops, exactly like Histogram — so Windows are
// safe under concurrent writers and scrapers. Bucket rotation (zeroing
// a slot whose interval has passed) serializes on a mutex taken only
// once per interval per slot. A writer descheduled across a rotation
// can land one observation in the adjacent interval or lose it to the
// reset; the error is bounded by one observation per rotation, the same
// torn-read tolerance the scrape-safe histograms accept.
type Window struct {
	interval int64 // bucket width in nanoseconds
	bounds   []int64
	slots    []windowSlot
	// now is the monotonic-enough clock, injectable for tests.
	now func() int64
	mu  sync.Mutex // serializes slot rotation only
}

// windowSlot is one ring bucket. epoch is the absolute interval number
// (now / interval) the slot currently accumulates; a slot whose epoch
// trails the current interval is stale and rotates before reuse. The
// slot's observation count is the sum of its bucket counts, so a
// snapshot's count always equals its bucket total.
type windowSlot struct {
	epoch  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
	counts []atomic.Int64
}

// NewWindow builds a rolling window of span covered by fixed buckets of
// the given interval, with histogram bounds for quantile estimation
// (same semantics as NewHistogram). One extra slot keeps the full span
// covered by complete buckets even while the current one fills.
func NewWindow(interval, span time.Duration, bounds ...int64) *Window {
	if interval <= 0 || span < interval {
		panic(fmt.Sprintf("metrics: window needs 0 < interval <= span, got %v/%v", interval, span))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: window bounds not increasing: %v", bounds))
		}
	}
	n := int(span/interval) + 1
	w := &Window{
		interval: int64(interval),
		bounds:   append([]int64(nil), bounds...),
		slots:    make([]windowSlot, n),
		now:      func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
		w.slots[i].min.Store(maxInt64Bound)
		w.slots[i].max.Store(-maxInt64Bound - 1)
		w.slots[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return w
}

// Observe records one value into the current interval's bucket.
func (w *Window) Observe(v int64) {
	e := w.now() / w.interval
	s := &w.slots[int(e%int64(len(w.slots)))]
	if s.epoch.Load() != e {
		w.rotate(s, e)
	}
	i := 0
	for i < len(w.bounds) && v > w.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.sum.Add(v)
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// rotate resets a stale slot for interval e. Double-checked under the
// mutex so concurrent writers reset each slot once per interval.
func (w *Window) rotate(s *windowSlot, e int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s.epoch.Load() == e {
		return
	}
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.sum.Store(0)
	s.min.Store(maxInt64Bound)
	s.max.Store(-maxInt64Bound - 1)
	s.epoch.Store(e)
}

// Stats merges every bucket covering the last span into one Snapshot
// (count, sum, quantile-capable buckets). The current partial interval
// is included, so a burst shows up immediately; rates computed against
// the nominal span therefore understate slightly at the start of an
// interval, which is the usual rolling-window tradeoff.
func (w *Window) Stats(span time.Duration) Snapshot {
	need := int64(span) / w.interval
	if need < 1 {
		need = 1
	}
	if need > int64(len(w.slots)) {
		need = int64(len(w.slots))
	}
	cur := w.now() / w.interval
	snap := Snapshot{}
	counts := make([]int64, len(w.bounds)+1)
	first := true
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e < 0 || e > cur || e <= cur-need {
			continue
		}
		var c int64
		for j := range counts {
			n := s.counts[j].Load()
			counts[j] += n
			c += n
		}
		if c == 0 {
			continue
		}
		snap.Count += c
		snap.Sum += s.sum.Load()
		if mn := s.min.Load(); first || mn < snap.Min {
			snap.Min = mn
		}
		if mx := s.max.Load(); first || mx > snap.Max {
			snap.Max = mx
		}
		first = false
	}
	if snap.Count > 0 {
		snap.Mean = float64(snap.Sum) / float64(snap.Count)
	}
	snap.Buckets = make([]Bucket, len(counts))
	for j := range counts {
		le := int64(maxInt64Bound)
		if j < len(w.bounds) {
			le = w.bounds[j]
		}
		snap.Buckets[j] = Bucket{Le: le, Count: counts[j]}
	}
	return snap
}

// maxInt64Bound mirrors the Histogram overflow-bucket sentinel.
const maxInt64Bound = int64(^uint64(0) >> 1)

// RegisterWindow exposes the standard rolling series for w under name:
// per-second observation rates over the last 1m and 5m, and p50/p95/p99
// quantile estimates over both horizons. scale multiplies the quantile
// values (pass 1e-9 for nanosecond observations exposed as seconds),
// matching HistogramFunc. All series are gauges — rolling-window values
// go down when load does. The series form one batch: a scrape merges
// each horizon's buckets once.
func RegisterWindow(r *Registry, name, help string, scale float64, w *Window) {
	if scale <= 0 {
		panic(fmt.Sprintf("metrics: window %q scale must be positive", name))
	}
	var m1, m5 Snapshot
	b := r.Batch(func() { m1, m5 = w.Stats(time.Minute), w.Stats(5*time.Minute) })
	rate := func(s *Snapshot, span time.Duration) func() float64 {
		return func() float64 { return float64(s.Count) / span.Seconds() }
	}
	quant := func(s *Snapshot, q float64) func() float64 {
		return func() float64 { return float64(s.Quantile(q)) * scale }
	}
	b.GaugeFunc(name+"_rate1m", help+" (per-second rate, last 1m).", rate(&m1, time.Minute))
	b.GaugeFunc(name+"_rate5m", help+" (per-second rate, last 5m).", rate(&m5, 5*time.Minute))
	b.GaugeFunc(name+"_p50_1m", help+" (p50, last 1m).", quant(&m1, 0.50))
	b.GaugeFunc(name+"_p95_1m", help+" (p95, last 1m).", quant(&m1, 0.95))
	b.GaugeFunc(name+"_p99_1m", help+" (p99, last 1m).", quant(&m1, 0.99))
	b.GaugeFunc(name+"_p95_5m", help+" (p95, last 5m).", quant(&m5, 0.95))
	b.GaugeFunc(name+"_p99_5m", help+" (p99, last 5m).", quant(&m5, 0.99))
}
