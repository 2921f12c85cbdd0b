package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// validName is the Prometheus metric-name charset.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// entry is one registered metric: a name, a type, and a read function.
// Exactly one of value and hist is set; exemplars is optional and only
// ever set alongside hist.
type entry struct {
	name, help string
	typ        string // "counter", "gauge", or "histogram"
	value      func() float64
	hist       func() Snapshot
	scale      float64 // multiplies histogram bounds/sum (e.g. 1e-9 for ns -> s)
	// exemplars reads the histogram's per-bucket exemplars at scrape
	// time (index-aligned with the snapshot buckets); nil histograms and
	// the Prometheus text format ignore it — only the OpenMetrics
	// exposition renders exemplars.
	exemplars func() []*Exemplar
}

// Registry maps metric names to live read functions and renders them in
// the Prometheus text exposition format. Registration takes the lock;
// exposition reads every metric through its atomic accessors, so
// scraping is safe while writers keep observing. Metric names must
// match [a-zA-Z_:][a-zA-Z0-9_:]* and be unique; violations panic at
// registration time (configuration errors, not runtime conditions).
type Registry struct {
	mu      sync.RWMutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register validates and stores one entry.
func (r *Registry) register(e *entry) {
	if !validName.MatchString(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	r.byName[e.name] = e
	r.entries = append(r.entries, e)
}

// Counter creates, registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, typ: "counter",
		value: func() float64 { return float64(c.Load()) }})
	return c
}

// CounterFunc registers a counter whose value is read from f at scrape
// time. The function must be safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.register(&entry{name: name, help: help, typ: "counter",
		value: func() float64 { return float64(f()) }})
}

// CounterFloatFunc registers a counter whose float value is read from f
// at scrape time — for monotonic totals in non-integer units, e.g.
// accumulated seconds. The function must be safe for concurrent calls
// and non-decreasing between them.
func (r *Registry) CounterFloatFunc(name, help string, f func() float64) {
	r.register(&entry{name: name, help: help, typ: "counter", value: f})
}

// GaugeFunc registers a gauge whose value is read from f at scrape
// time. The function must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&entry{name: name, help: help, typ: "gauge", value: f})
}

// Histogram creates, registers and returns a histogram with the given
// bucket upper bounds, exposed with cumulative Prometheus buckets (and
// its exemplars in the OpenMetrics mode).
func (r *Registry) Histogram(name, help string, bounds ...int64) *Histogram {
	h := NewHistogram(bounds...)
	r.HistogramFuncExemplars(name, help, 1, h.Snapshot, h.Exemplars)
	return h
}

// HistogramFunc registers a histogram read from f at scrape time.
// scale multiplies every bound and the sum in the exposition (pass 1e-9
// to expose nanosecond observations as seconds); f may return a
// zero-value Snapshot while the underlying histogram does not exist
// yet. The function must be safe for concurrent calls.
func (r *Registry) HistogramFunc(name, help string, scale float64, f func() Snapshot) {
	r.HistogramFuncExemplars(name, help, scale, f, nil)
}

// HistogramFuncExemplars is HistogramFunc plus an exemplar reader: ex
// (may be nil) returns the per-bucket exemplars index-aligned with f's
// snapshot buckets, rendered only by the OpenMetrics exposition.
func (r *Registry) HistogramFuncExemplars(name, help string, scale float64, f func() Snapshot, ex func() []*Exemplar) {
	if scale <= 0 {
		panic(fmt.Sprintf("metrics: histogram %q scale must be positive", name))
	}
	r.register(&entry{name: name, help: help, typ: "histogram", hist: f, scale: scale, exemplars: ex})
}

// helpEscaper applies the exposition-format HELP escaping: backslashes
// and line feeds would otherwise corrupt the line-oriented format.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// formatFloat renders a sample value the way Prometheus expects:
// shortest representation, "+Inf"/"-Inf" for infinities, and an
// explicit "NaN" (never a locale- or formatter-dependent spelling) for
// NaN so scrapers always see the exposition-format token.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), in registration order. It is
// safe to call while writers keep updating the metrics: scalar values
// are single atomic loads, and histogram consistency is enforced by
// deriving the _count sample from the cumulative bucket counts, so the
// buckets are always non-decreasing and sum to the count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.RUnlock()
	for _, e := range entries {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, helpEscaper.Replace(e.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.typ); err != nil {
			return err
		}
		if e.hist == nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.value())); err != nil {
				return err
			}
			continue
		}
		s := e.hist()
		var cum int64
		for _, b := range s.Buckets {
			cum += b.Count
			le := math.Inf(+1)
			if b.Le != math.MaxInt64 {
				le = float64(b.Le) * e.scale
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, formatFloat(le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", e.name, formatFloat(float64(s.Sum)*e.scale)); err != nil {
			return err
		}
		// cum, not s.Count: the bucket counts and the count field are
		// distinct atomics, so under concurrent writes only the bucket
		// sum is guaranteed consistent with the _bucket lines above.
		if _, err := fmt.Fprintf(w, "%s_count %d\n", e.name, cum); err != nil {
			return err
		}
	}
	return nil
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return names
}

// Handler returns an http.Handler serving the exposition, for mounting
// at /metrics. The default output is the Prometheus text format
// (version 0.0.4), byte-for-byte what it always was; a client whose
// Accept header asks for application/openmetrics-text gets the
// OpenMetrics rendering instead, which additionally carries histogram
// exemplars and the # EOF terminator.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if acceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// acceptsOpenMetrics reports whether an Accept header opts into the
// OpenMetrics exposition. Plain substring matching over the media
// ranges is enough here: a client that lists the OpenMetrics type at
// all is a scraper that can parse it (Prometheus sends it first, with
// the text format as fallback), and clients that never mention it keep
// the default format untouched.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "application/openmetrics-text" {
			return true
		}
	}
	return false
}
