package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWindow returns a window on a settable fake clock.
func fakeWindow(t *testing.T, interval, span time.Duration, bounds ...int64) (*Window, *atomic.Int64) {
	t.Helper()
	w := NewWindow(interval, span, bounds...)
	var clock atomic.Int64
	w.now = func() int64 { return clock.Load() }
	return w, &clock
}

func TestWindowBucketsAndExpiry(t *testing.T) {
	w, clock := fakeWindow(t, 10*time.Second, 5*time.Minute, 10, 100, 1000)

	clock.Store(int64(5 * time.Second)) // interval 0
	w.Observe(5)
	w.Observe(50)
	clock.Store(int64(15 * time.Second)) // interval 1
	w.Observe(500)

	s := w.Stats(time.Minute)
	if s.Count != 3 || s.Sum != 555 {
		t.Fatalf("1m stats = count %d sum %d, want 3/555", s.Count, s.Sum)
	}
	if s.Min != 5 || s.Max != 500 {
		t.Fatalf("1m min/max = %d/%d, want 5/500", s.Min, s.Max)
	}

	// Advance so interval 0 leaves the 1m horizon while interval 1 is
	// still (just) inside it; everything stays inside 5m.
	clock.Store(int64(65 * time.Second))
	if s := w.Stats(time.Minute); s.Count != 1 || s.Sum != 500 {
		t.Fatalf("1m stats after drift = count %d sum %d, want 1/500", s.Count, s.Sum)
	}
	if s := w.Stats(5 * time.Minute); s.Count != 3 {
		t.Fatalf("5m stats after drift = count %d, want 3", s.Count)
	}

	// Advance past 5m: everything expires (slots with stale epochs are
	// skipped even before they rotate).
	clock.Store(int64(10 * time.Minute))
	if s := w.Stats(5 * time.Minute); s.Count != 0 {
		t.Fatalf("5m stats after expiry = count %d, want 0", s.Count)
	}
}

func TestWindowSlotReuseResets(t *testing.T) {
	w, clock := fakeWindow(t, time.Second, 3*time.Second, 10)
	w.Observe(1) // interval 0, slot 0
	// Exactly len(slots) intervals later the same slot is reused; its
	// old contents must not leak into the new interval.
	clock.Store(int64(len(w.slots)) * int64(time.Second))
	w.Observe(7)
	s := w.Stats(time.Second)
	if s.Count != 1 || s.Sum != 7 {
		t.Fatalf("reused slot stats = count %d sum %d, want 1/7", s.Count, s.Sum)
	}
}

func TestWindowQuantilesAndRate(t *testing.T) {
	w, clock := fakeWindow(t, 10*time.Second, 5*time.Minute, ExpBounds(1, 2, 12)...)
	clock.Store(int64(30 * time.Second))
	for i := 1; i <= 100; i++ {
		w.Observe(int64(i))
	}
	s := w.Stats(time.Minute)
	if q := s.Quantile(0.5); q < 50 || q > 64 {
		t.Errorf("p50 = %d, want within (50, 64]", q)
	}
	if q := s.Quantile(0.99); q < 99 || q > 100 {
		t.Errorf("p99 = %d, want clamped near max (got %d, max %d)", q, q, s.Max)
	}
	// The rate gauges divide this count by the span
	// (TestRegisterWindowSeries).
	if s.Count != 100 {
		t.Errorf("1m count = %d, want 100", s.Count)
	}
}

func TestWindowRejectsBadConstruction(t *testing.T) {
	for name, f := range map[string]func(){
		"zero interval":     func() { NewWindow(0, time.Minute) },
		"span < interval":   func() { NewWindow(time.Minute, time.Second) },
		"unsorted bounds":   func() { NewWindow(time.Second, time.Minute, 5, 5) },
		"bad RegisterScale": func() { RegisterWindow(NewRegistry(), "w", "", 0, NewWindow(time.Second, time.Minute)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegisterWindowSeries(t *testing.T) {
	r := NewRegistry()
	w, clock := fakeWindow(t, 10*time.Second, 5*time.Minute, ExpBounds(1, 2, 12)...)
	clock.Store(int64(30 * time.Second))
	for i := 0; i < 600; i++ {
		w.Observe(100)
	}
	RegisterWindow(r, "mot_req_seconds", "Request latency", 1, w)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mot_req_seconds_rate1m gauge",
		"mot_req_seconds_rate1m 10",
		"mot_req_seconds_rate5m 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// All observations are 100, so every quantile clamps to the max.
	for _, q := range []string{"p50_1m", "p95_1m", "p99_1m", "p95_5m", "p99_5m"} {
		if !strings.Contains(out, "mot_req_seconds_"+q+" 100\n") {
			t.Errorf("exposition missing clamped quantile %s:\n%s", q, out)
		}
	}
}

// TestWindowParallelObserveScrapeCrossCheck hammers a window from
// concurrent writers while scraping its stats, asserting every merged
// snapshot is internally consistent (bucket total == count, sum within
// observed value range bounds). Runs under -race via the Makefile
// pattern (Window).
func TestWindowParallelObserveScrapeCrossCheck(t *testing.T) {
	w := NewWindow(50*time.Millisecond, 5*time.Second, ExpBounds(1, 2, 10)...)
	const writers, perWriter = 4, 20000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				w.Observe(int64(j%500 + 1))
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			s := w.Stats(5 * time.Second)
			var sum int64
			for _, b := range s.Buckets {
				sum += b.Count
			}
			// Bucket counts and the slot count field are separate
			// atomics, so allow the same one-observation-per-writer skew
			// the torn-scrape histogram tests allow.
			if diff := sum - s.Count; diff > writers || diff < -writers {
				t.Errorf("window snapshot torn: bucket total %d vs count %d", sum, s.Count)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	// The writers finished well inside the 5s horizon, so nothing has
	// expired: the final merged count must equal the observation count.
	s := w.Stats(5 * time.Second)
	if s.Count != writers*perWriter {
		t.Fatalf("final window count = %d, want %d", s.Count, writers*perWriter)
	}
}
