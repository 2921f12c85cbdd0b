package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 || s.Min != 0 || s.Max != 100 || s.Sum != 120 {
		t.Fatalf("snapshot = %+v", s)
	}
	wantCounts := []int64{2, 1, 1, 1, 2} // <=1, <=2, <=4, <=8, overflow
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d (%+v)", i, b.Count, wantCounts[i], s.Buckets)
		}
	}
	if s.Buckets[len(s.Buckets)-1].Le != math.MaxInt64 {
		t.Fatal("overflow bucket bound not MaxInt64")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.05); q != 10 {
		t.Errorf("p5 = %d, want 10 (first bucket bound)", q)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %d, want 100", q)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("p100 = %d, want clamped max 100", q)
	}
	if q := (Snapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 12)...)
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(i % 512))
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if c.Load() != workers*per {
		t.Fatalf("counter = %d", c.Load())
	}
	var total int64
	for _, b := range h.Snapshot().Buckets {
		total += b.Count
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1, 4, 5)
	want := []int64{1, 4, 16, 64, 256}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
	// Saturation: bounds must stay increasing and finite.
	sat := ExpBounds(math.MaxInt64/2, 2, 10)
	for i := 1; i < len(sat); i++ {
		if sat[i] <= sat[i-1] {
			t.Fatalf("saturated bounds not increasing: %v", sat)
		}
	}
}

func TestSnapshotJSONAndString(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(50)
	s := h.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 2 || back.Sum != 55 {
		t.Fatalf("roundtrip = %+v", back)
	}
	if s.String() == "" || s.DurationString() == "" {
		t.Fatal("empty summary strings")
	}
	if (Snapshot{}).String() != "n=0" || (Snapshot{}).DurationString() != "n=0" {
		t.Fatal("empty snapshot summary")
	}
}

func TestObserveAllocsZero(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 16)...)
	var c Counter
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(37)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("observation allocates: %v allocs/op", allocs)
	}
}
