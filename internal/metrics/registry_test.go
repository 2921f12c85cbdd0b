package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mot_faults_total", "Faults submitted.")
	c.Add(42)
	r.GaugeFunc("mot_runs_active", "Runs in flight.", func() float64 { return 2 })
	r.CounterFunc("mot_stage_seconds_total", "Stage time.", func() float64 { return 1.5 })
	r.GaugeFunc("mot_coverage", "Fraction detected.", func() float64 { return 0.5 })
	r.CounterFunc("mot_done_total", "Done.", func() float64 { return 7 })
	h := r.Histogram("mot_pairs", "Pairs per fault.", 1, 2, 4)
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP mot_faults_total Faults submitted.",
		"# TYPE mot_faults_total counter",
		"mot_faults_total 42",
		"# TYPE mot_runs_active gauge",
		"mot_runs_active 2",
		"# TYPE mot_stage_seconds_total counter",
		"mot_stage_seconds_total 1.5",
		"mot_coverage 0.5",
		"mot_done_total 7",
		"# TYPE mot_pairs histogram",
		`mot_pairs_bucket{le="1"} 1`,
		`mot_pairs_bucket{le="2"} 1`,
		`mot_pairs_bucket{le="4"} 2`,
		`mot_pairs_bucket{le="+Inf"} 3`,
		"mot_pairs_sum 104",
		"mot_pairs_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramScale(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(1_000_000_000, 2_000_000_000)
	r.HistogramFunc("mot_fault_seconds", "Per-fault time.", 1e-9, h.Snapshot, nil)
	h.Observe(1_500_000_000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mot_fault_seconds_bucket{le="1"} 0`,
		`mot_fault_seconds_bucket{le="2"} 1`,
		`mot_fault_seconds_bucket{le="+Inf"} 1`,
		"mot_fault_seconds_sum 1.5",
		"mot_fault_seconds_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "")
	for name, f := range map[string]func(){
		"duplicate":    func() { r.Counter("ok_name", "") },
		"invalid name": func() { r.Counter("bad name", "") },
		"bad scale":    func() { r.HistogramFunc("h", "", 0, func() Snapshot { return Snapshot{} }, nil) },
		"batch out of turn": func() {
			b := r.Batch(func() {})
			b.GaugeFunc("b1", "", func() float64 { return 0 })
			r.GaugeFunc("between", "", func() float64 { return 0 })
			b.GaugeFunc("b2", "", func() float64 { return 0 })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("one", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	if !strings.Contains(sb.String(), "one 1\n") {
		t.Errorf("handler output missing counter:\n%s", sb.String())
	}
}

// TestRegistryGoldenExposition pins the exact byte output of the text
// exposition, including the HELP escaping of backslashes and newlines
// the format requires — a scraper-visible contract, so any format drift
// must show up as a diff here.
func TestRegistryGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("mot_requests_total", `Requests with a \ backslash
and a newline.`).Add(5)
	r.GaugeFunc("mot_depth", "", func() float64 { return 2 })
	h := r.Histogram("mot_width", "Widths.", 1, 8)
	h.Observe(1)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	golden := `# HELP mot_requests_total Requests with a \\ backslash\nand a newline.
# TYPE mot_requests_total counter
mot_requests_total 5
# TYPE mot_depth gauge
mot_depth 2
# HELP mot_width Widths.
# TYPE mot_width histogram
mot_width_bucket{le="1"} 1
mot_width_bucket{le="8"} 1
mot_width_bucket{le="+Inf"} 2
mot_width_sum 10
mot_width_count 2
`
	if sb.String() != golden {
		t.Errorf("exposition drifted from golden output:\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
}

// parseExposition is a minimal Prometheus text-format parser used by the
// concurrency tests: it validates line shapes and returns samples by name.
func parseExposition(t *testing.T, out string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank exposition line")
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[fields[0]] = v
	}
	return samples
}

// TestRegistryParallelScrapeCrossCheck hammers every metric kind from
// writer goroutines while scraping concurrently, asserting each scrape
// parses and each histogram is internally consistent: cumulative
// buckets are non-decreasing and the _count sample equals the +Inf
// bucket (no torn histograms). Run under -race via the Makefile race
// target (the name matches the Parallel|...|CrossCheck pattern).
func TestRegistryParallelScrapeCrossCheck(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes_total", "")
	var level, busy atomic.Int64
	r.GaugeFunc("level", "", func() float64 { return float64(level.Load()) })
	h := r.Histogram("sizes", "", ExpBounds(1, 2, 8)...)
	r.CounterFunc("busy_seconds_total", "", func() float64 { return time.Duration(busy.Load()).Seconds() })

	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				level.Store(int64(i))
				h.Observe(int64(i%300 + 1))
				busy.Add(int64(time.Nanosecond))
			}
		}(w)
	}
	var scrapes int
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		// Scrape before checking stop so at least one scrape happens
		// even if the writers win every scheduling race.
		for {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			checkHistogramConsistency(t, sb.String(), "sizes")
			scrapes++
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

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())
	if got := samples["writes_total"]; got != writers*perWriter {
		t.Errorf("writes_total = %v, want %d", got, writers*perWriter)
	}
	if got := samples["sizes_count"]; got != writers*perWriter {
		t.Errorf("sizes_count = %v, want %d", got, writers*perWriter)
	}
	if scrapes == 0 {
		t.Error("scraper never ran concurrently with the writers")
	}
}

// checkHistogramConsistency parses one exposition and asserts the named
// histogram's cumulative buckets never decrease and agree with _count.
func checkHistogramConsistency(t *testing.T, out, name string) {
	t.Helper()
	var last float64
	lastInf := math.NaN()
	var count float64 = math.NaN()
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("cumulative bucket decreased in %q (prev %v)", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				lastInf = v
			}
		case strings.HasPrefix(line, name+"_count "):
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	if math.IsNaN(lastInf) || math.IsNaN(count) {
		t.Fatalf("histogram %s missing from exposition", name)
	}
	if lastInf != count {
		t.Fatalf("histogram %s torn: +Inf bucket %v != count %v", name, lastInf, count)
	}
}

// TestHistogramParallelObserveCrossCheck checks Snapshot under
// concurrent Observe: every snapshot's bucket total must never exceed
// the number of started observations and the final snapshot matches
// exactly.
func TestHistogramParallelObserveCrossCheck(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 6)...)
	const writers, perWriter = 4, 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(i%100 + 1))
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var sum int64
			for _, b := range s.Buckets {
				sum += b.Count
			}
			if sum > writers*perWriter {
				t.Errorf("snapshot bucket total %d exceeds observations %d", sum, writers*perWriter)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	s := h.Snapshot()
	var sum int64
	for _, b := range s.Buckets {
		sum += b.Count
	}
	if sum != writers*perWriter || s.Count != writers*perWriter {
		t.Errorf("final snapshot: bucket sum %d count %d, want %d", sum, s.Count, writers*perWriter)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", "")
	r.Counter("a", "")
	names := r.Names()
	if fmt.Sprint(names) != "[a b]" {
		t.Errorf("Names() = %v", names)
	}
}

// TestRegistryBatchReadsOnce checks that one scrape calls a batch's
// read once, before its first family, in both formats, and that every
// family of the batch renders the state of that one read.
func TestRegistryBatchReadsOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("before_total", "").Inc()
	var reads int
	var v int64
	b := r.Batch(func() { reads++; v = int64(reads) * 10 })
	b.CounterFunc("b_total", "", func() float64 { return float64(v) })
	b.GaugeFunc("b_gauge", "", func() float64 { return float64(v + 1) })
	b.HistogramFunc("b_hist", "", 1, func() Snapshot {
		return Snapshot{Count: 1, Sum: v, Buckets: []Bucket{{Le: math.MaxInt64, Count: 1}}}
	}, func() []*Exemplar { return []*Exemplar{{Value: v}} })
	r.GaugeFunc("after", "", func() float64 { return 1 })

	for i, write := range []func(io.Writer) error{r.WritePrometheus, r.WriteOpenMetrics} {
		var sb strings.Builder
		if err := write(&sb); err != nil {
			t.Fatal(err)
		}
		if reads != i+1 {
			t.Fatalf("scrape %d: batch read %d times in total, want %d", i+1, reads, i+1)
		}
		want := (i + 1) * 10
		for _, line := range []string{
			fmt.Sprintf("b_total %d\n", want),
			fmt.Sprintf("b_gauge %d\n", want+1),
			fmt.Sprintf("b_hist_sum %d\n", want),
		} {
			if !strings.Contains(sb.String(), line) {
				t.Errorf("scrape %d missing %q:\n%s", i+1, line, sb.String())
			}
		}
	}
}

// TestRegistryBatchParallelScrape scrapes one registry from several
// goroutines while a writer moves the batch's source: every read
// happens under the batch's lock (the race detector checks the shared
// state), each scrape calls read once, and both families of a scrape
// render the same read.
func TestRegistryBatchParallelScrape(t *testing.T) {
	r := NewRegistry()
	var src, reads atomic.Int64
	var a, b int64
	batch := r.Batch(func() {
		reads.Add(1)
		a = src.Load()
		b = a
	})
	batch.CounterFunc("a_total", "", func() float64 { return float64(a) })
	batch.CounterFunc("b_total", "", func() float64 { return float64(b) })

	const scrapers, perScraper = 4, 200
	stop := make(chan struct{})
	var wg, sg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				src.Add(1)
			}
		}
	}()
	for g := 0; g < scrapers; g++ {
		sg.Add(1)
		go func(om bool) {
			defer sg.Done()
			for i := 0; i < perScraper; i++ {
				var sb strings.Builder
				write := r.WritePrometheus
				if om {
					write = r.WriteOpenMetrics
				}
				if err := write(&sb); err != nil {
					t.Error(err)
					return
				}
				out := strings.TrimSuffix(sb.String(), "# EOF\n")
				if s := parseExposition(t, out); s["a_total"] != s["b_total"] {
					t.Errorf("one scrape rendered two reads: a_total %v, b_total %v", s["a_total"], s["b_total"])
					return
				}
			}
		}(g%2 == 1)
	}
	sg.Wait()
	close(stop)
	wg.Wait()
	if got := reads.Load(); got != scrapers*perScraper {
		t.Errorf("batch read %d times over %d scrapes", got, scrapers*perScraper)
	}
}
