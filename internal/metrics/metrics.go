// Package metrics provides the lightweight instrumentation primitives
// used by the MOT pipeline: atomic counters and fixed-bucket
// histograms, plus a registry exposing them. Every primitive
// is safe for concurrent use, costs roughly one atomic add per
// observation, and allocates nothing after construction, so it can sit
// on the zero-allocation per-fault hot path without perturbing it.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonically increasing counter.
// The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram of int64 observations. Bucket
// bounds are set at construction and never change; observation is one
// atomic add on the matching bucket plus count/sum/min/max updates.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
	// ex holds the per-bucket exemplar slots, allocated lazily on the
	// first SetExemplar — a histogram that never records exemplars pays
	// one nil pointer field and nothing on Observe or Snapshot.
	ex atomic.Pointer[exemplarSet]
}

// NewHistogram builds a histogram with the given strictly increasing
// bucket upper bounds. An observation v lands in the first bucket with
// v <= bound, or in the implicit overflow bucket past the last bound.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing: %v", bounds))
		}
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// ExpBounds returns n upper bounds starting at start and multiplying by
// factor: start, start*factor, ... — the usual shape for size and
// latency distributions.
func ExpBounds(start, factor int64, n int) []int64 {
	if start < 1 || factor < 2 || n < 1 {
		panic("metrics: ExpBounds needs start >= 1, factor >= 2, n >= 1")
	}
	bounds := make([]int64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		if b > math.MaxInt64/factor {
			// Saturate instead of overflowing; trailing bounds collapse
			// into the overflow bucket.
			bounds = bounds[:i+1]
			break
		}
		b *= factor
	}
	return bounds
}

// batchFlushEvery bounds how stale a HistBatch can leave its shared
// histogram: the batch auto-flushes after this many observations, so
// mid-run scrapes lag by at most one batch.
const batchFlushEvery = 512

// HistBatch is a single-goroutine accumulator feeding a shared
// Histogram. Observe is plain arithmetic — no atomics — which matters
// for per-frame observation sites that fire hundreds of thousands of
// times per run; Flush merges the accumulated buckets into the shared
// histogram in one atomic pass and empties the batch. Observe
// auto-flushes every batchFlushEvery observations. Not safe for
// concurrent use; create one per goroutine over the same Histogram.
type HistBatch struct {
	h      *Histogram
	counts []int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// NewBatch returns an empty single-goroutine batch over h.
func (h *Histogram) NewBatch() *HistBatch {
	return &HistBatch{
		h:      h,
		counts: make([]int64, len(h.counts)),
		min:    math.MaxInt64,
		max:    math.MinInt64,
	}
}

// Observe records one value into the batch.
func (b *HistBatch) Observe(v int64) {
	h := b.h
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	b.counts[i]++
	b.count++
	b.sum += v
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
	if b.count >= batchFlushEvery {
		b.Flush()
	}
}

// Flush merges the batch into the shared histogram and empties it.
func (b *HistBatch) Flush() {
	if b.count == 0 {
		return
	}
	h := b.h
	for i := range b.counts {
		if b.counts[i] != 0 {
			h.counts[i].Add(b.counts[i])
			b.counts[i] = 0
		}
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	for {
		cur := h.min.Load()
		if b.min >= cur || h.min.CompareAndSwap(cur, b.min) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if b.max <= cur || h.max.CompareAndSwap(cur, b.max) {
			break
		}
	}
	b.count, b.sum = 0, 0
	b.min, b.max = math.MaxInt64, math.MinInt64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Label is one exemplar label: a key/value pair linking a recorded
// observation back to its origin (span ID, fault name, run ID).
type Label struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Exemplar is one example observation attached to a histogram bucket:
// the raw observed value plus the labels identifying where it came
// from. Exemplars are overwritten in place — each bucket keeps only the
// most recent one — which is exactly the OpenMetrics exposition model.
type Exemplar struct {
	Value  int64   `json:"value"`
	Labels []Label `json:"labels,omitempty"`
}

// exemplarSet holds one atomic exemplar slot per histogram bucket
// (including the overflow bucket).
type exemplarSet struct {
	slots []atomic.Pointer[Exemplar]
}

// exemplars returns the lazily allocated slot set, creating it on first
// use. Creation races resolve by CAS; the loser's allocation is dropped.
func (h *Histogram) exemplars() *exemplarSet {
	if es := h.ex.Load(); es != nil {
		return es
	}
	es := &exemplarSet{slots: make([]atomic.Pointer[Exemplar], len(h.counts))}
	if h.ex.CompareAndSwap(nil, es) {
		return es
	}
	return h.ex.Load()
}

// SetExemplar records v (which the caller has already Observed, or is
// about to) as the exemplar of the bucket v falls in. Call it only for
// the observations worth linking — e.g. span-sampled faults — so the
// unsampled hot path never pays the allocation.
func (h *Histogram) SetExemplar(v int64, labels ...Label) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.exemplars().slots[i].Store(&Exemplar{Value: v, Labels: labels})
}

// Exemplars returns the current per-bucket exemplars, index-aligned
// with Snapshot().Buckets; entries are nil for buckets without one, and
// the slice is nil when the histogram never recorded any.
func (h *Histogram) Exemplars() []*Exemplar {
	es := h.ex.Load()
	if es == nil {
		return nil
	}
	out := make([]*Exemplar, len(es.slots))
	for i := range es.slots {
		out[i] = es.slots[i].Load()
	}
	return out
}

// Bucket is one bucket of a histogram snapshot: Count observations with
// value <= Le (Le is math.MaxInt64 for the overflow bucket).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time copy of a histogram, safe to read and
// marshal while the histogram keeps observing.
type Snapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Buckets with zero
// observations are retained so bucket layouts stay comparable across
// snapshots.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.Buckets = make([]Bucket, len(h.counts))
	for i := range h.counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, Count: h.counts[i].Load()}
	}
	return s
}

// Quantile returns an upper estimate of the q-quantile (0 <= q <= 1)
// from the bucket counts: the upper bound of the bucket holding the
// q-th observation, clamped to the observed min/max.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			v := b.Le
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// String renders a one-line summary: count, mean, p50/p90, max.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p90<=%d max=%d",
		s.Count, s.Mean, s.Quantile(0.5), s.Quantile(0.9), s.Max)
}

// DurationString renders the summary with nanosecond observations shown
// as durations.
func (s Snapshot) DurationString() string {
	if s.Count == 0 {
		return "n=0"
	}
	d := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("n=%d mean=%s p50<=%s p90<=%s max=%s",
		s.Count, d(int64(s.Mean)), d(s.Quantile(0.5)), d(s.Quantile(0.9)), d(s.Max))
}
