package metrics

import (
	"math"
	"runtime"
	rtm "runtime/metrics"
)

// uint64Of reads a scalar sample as uint64, zero when the runtime does
// not export it (KindBad on older/newer toolchains).
func uint64Of(v rtm.Value) uint64 {
	if v.Kind() == rtm.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// snapshotOf converts a runtime float64-histogram sample (bounds in
// seconds) into a Snapshot with nanosecond integer bounds, for
// HistogramFunc exposure at scale 1e-9. Runtime histograms carry no
// sum, so Sum is estimated from bucket midpoints (documented in the
// series help); min/max are taken from the outermost occupied bucket
// edges, which keeps Quantile's clamping sound.
func snapshotOf(v rtm.Value) Snapshot {
	if v.Kind() != rtm.KindFloat64Histogram {
		return Snapshot{}
	}
	h := v.Float64Histogram()
	var s Snapshot
	s.Min, s.Max = math.MaxInt64, math.MinInt64
	for i, n := range h.Counts {
		cnt := int64(n)
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		le := int64(math.MaxInt64)
		if !math.IsInf(hi, +1) {
			le = int64(hi * 1e9)
		}
		// Runtime bucket edges are distinct floats but can collapse to
		// the same nanosecond integer; fold such buckets together so the
		// bounds stay strictly increasing.
		if k := len(s.Buckets); k > 0 && s.Buckets[k-1].Le >= le {
			s.Buckets[k-1].Count += cnt
		} else {
			s.Buckets = append(s.Buckets, Bucket{Le: le, Count: cnt})
		}
		if cnt == 0 {
			continue
		}
		s.Count += cnt
		mid := hi
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, +1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		s.Sum += cnt * int64(mid*1e9)
		if loNS := int64(math.Max(lo, 0) * 1e9); loNS < s.Min {
			s.Min = loNS
		}
		if !math.IsInf(hi, +1) {
			if hiNS := int64(hi * 1e9); hiNS > s.Max {
				s.Max = hiNS
			}
		}
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	} else {
		s.Mean = float64(s.Sum) / float64(s.Count)
		if s.Max < s.Min {
			s.Max = s.Min
		}
	}
	return s
}

// RegisterRuntime registers the Go runtime health series on r under
// prefix (e.g. "motserve" yields motserve_go_goroutines): goroutine
// count, heap and stack bytes, cumulative allocated bytes and GC
// cycles, and the GC pause and scheduler latency distributions. The
// series form one batch: a scrape makes one runtime/metrics read for
// all of them, so registration itself costs nothing at runtime. The
// two _seconds histograms estimate their _sum from bucket midpoints
// (the runtime exports no exact sum).
func RegisterRuntime(r *Registry, prefix string) {
	var samples []rtm.Sample
	sample := func(name string) func() rtm.Value {
		i := len(samples)
		samples = append(samples, rtm.Sample{Name: name})
		return func() rtm.Value { return samples[i].Value }
	}
	scalar := func(name string) func() float64 {
		v := sample(name)
		return func() float64 { return float64(uint64Of(v())) }
	}
	hist := func(name string) func() Snapshot {
		v := sample(name)
		return func() Snapshot { return snapshotOf(v()) }
	}
	b := r.Batch(func() { rtm.Read(samples) })
	p := prefix + "_go_"
	b.GaugeFunc(p+"goroutines", "Live goroutines (runtime.NumGoroutine).",
		func() float64 { return float64(runtime.NumGoroutine()) })
	b.GaugeFunc(p+"heap_bytes", "Bytes of live heap objects (/memory/classes/heap/objects).",
		scalar("/memory/classes/heap/objects:bytes"))
	b.GaugeFunc(p+"stack_bytes", "Bytes of goroutine stacks (/memory/classes/heap/stacks).",
		scalar("/memory/classes/heap/stacks:bytes"))
	b.CounterFunc(p+"alloc_bytes_total", "Cumulative bytes allocated on the heap (/gc/heap/allocs).",
		scalar("/gc/heap/allocs:bytes"))
	b.CounterFunc(p+"gc_cycles_total", "Completed GC cycles (/gc/cycles/total).",
		scalar("/gc/cycles/total:gc-cycles"))
	b.HistogramFunc(p+"gc_pause_seconds",
		"Stop-the-world GC pause distribution (/sched/pauses/total/gc; _sum estimated from bucket midpoints).",
		1e-9, hist("/sched/pauses/total/gc:seconds"), nil)
	b.HistogramFunc(p+"sched_latency_seconds",
		"Time goroutines spend runnable before running (/sched/latencies; _sum estimated from bucket midpoints).",
		1e-9, hist("/sched/latencies:seconds"), nil)
}
