package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// validName is the Prometheus metric-name charset.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// entry is one registered metric: a name, a type, and a read function.
// Exactly one of value and hist is set; exemplars is optional and only
// ever set alongside hist. batch, when set, is the shared read that
// fills the state value or hist returns (Registry.Batch).
type entry struct {
	name, help string
	typ        string // "counter", "gauge", or "histogram"
	value      func() float64
	hist       func() Snapshot
	scale      float64 // multiplies histogram bounds/sum (e.g. 1e-9 for ns -> s)
	// exemplars reads the histogram's per-bucket exemplars at scrape
	// time (index-aligned with the snapshot buckets); the Prometheus
	// text format ignores it — only the OpenMetrics exposition renders
	// exemplars.
	exemplars func() []*Exemplar
	batch     *batch
}

// batch is one read shared by a run of families: a scrape takes mu,
// calls read once, renders the families, and only then unlocks.
type batch struct {
	mu   sync.Mutex
	read func()
	used bool // a family registered under the batch (guarded by store.mu)
}

// store holds the registered entries, shared by a registry and its
// batch views.
type store struct {
	mu      sync.RWMutex
	entries []*entry
	byName  map[string]*entry
}

// Registry maps metric names to live read functions and renders them in
// the Prometheus text or OpenMetrics exposition format. Registration
// takes the lock; exposition reads every metric through its atomic
// accessors or its batch's read, so scraping is safe while writers keep
// observing. Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* and be
// unique; violations panic at registration time (configuration errors,
// not runtime conditions).
type Registry struct {
	*store
	batch *batch // nil on the root registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{store: &store{byName: make(map[string]*entry)}}
}

// Batch returns a view of r whose registrations share one read. A
// scrape calls read once, under the batch's lock, before it renders the
// view's first family, and holds the lock until the last one is
// rendered; read fills the state the view's functions return, so a
// source behind many families is read once per scrape and every family
// sees the same read. Concurrent scrapes serialize on the lock, so
// neither read nor the families' functions may scrape r. The view's
// families must be registered one after another: a batch registration
// after a family of another batch or of the root panics.
func (r *Registry) Batch(read func()) *Registry {
	return &Registry{store: r.store, batch: &batch{read: read}}
}

// register validates and stores one entry.
func (r *Registry) register(e *entry) {
	if !validName.MatchString(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", e.name))
	}
	e.batch = r.batch
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	if b := e.batch; b != nil {
		if b.used && r.entries[len(r.entries)-1].batch != b {
			panic(fmt.Sprintf("metrics: batch family %q registered after another family", e.name))
		}
		b.used = true
	}
	r.byName[e.name] = e
	r.entries = append(r.entries, e)
}

// Counter creates, registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, func() float64 { return float64(c.Load()) })
	return c
}

// CounterFunc registers a counter whose value is read from f at scrape
// time. The function must be safe for concurrent calls and
// non-decreasing between them.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
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
	r.HistogramFunc(name, help, 1, h.Snapshot, h.Exemplars)
	return h
}

// HistogramFunc registers a histogram read from f at scrape time.
// scale multiplies every bound and the sum in the exposition (pass 1e-9
// to expose nanosecond observations as seconds); f may return a
// zero-value Snapshot while the underlying histogram does not exist
// yet. ex (may be nil) returns the per-bucket exemplars index-aligned
// with f's snapshot buckets, rendered only by the OpenMetrics
// exposition. Both functions must be safe for concurrent calls.
func (r *Registry) HistogramFunc(name, help string, scale float64, f func() Snapshot, ex func() []*Exemplar) {
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
// text exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders every registered metric in the OpenMetrics
// 1.0 text format, in registration order, ending with the mandatory
// "# EOF" terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// write renders the exposition; om selects OpenMetrics, which differs
// from the Prometheus text format in three ways: counter metadata names
// the family without the "_total" suffix (the sample line keeps it, per
// the spec), histogram buckets carry their exemplars when one was
// recorded (" # {labels} value" suffixes), and the stream ends with
// "# EOF". It is safe to call while writers keep updating the metrics:
// scalar values are single atomic loads or one batch read, and
// histogram consistency is enforced by deriving the _count sample from
// the cumulative bucket counts, so the buckets are always
// non-decreasing and sum to the count.
func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.RLock()
	entries := slices.Clone(r.entries)
	r.mu.RUnlock()
	ew := &errWriter{w: w}
	var held *batch
	defer func() {
		if held != nil {
			held.mu.Unlock()
		}
	}()
	for _, e := range entries {
		if ew.err != nil {
			return ew.err
		}
		if e.batch != held {
			if held != nil {
				held.mu.Unlock()
			}
			if held = e.batch; held != nil {
				held.mu.Lock()
				held.read()
			}
		}
		family := e.name
		if om && e.typ == "counter" {
			// OpenMetrics counter families drop the _total suffix in
			// metadata; samples keep the full registered name. Counters
			// registered without the suffix keep their name in both
			// places — renaming a series between negotiated formats
			// would be worse than the spec deviation.
			family = strings.TrimSuffix(e.name, "_total")
		}
		if e.help != "" {
			ew.printf("# HELP %s %s\n", family, helpEscaper.Replace(e.help))
		}
		ew.printf("# TYPE %s %s\n", family, e.typ)
		if e.hist == nil {
			ew.printf("%s %s\n", e.name, formatFloat(e.value()))
			continue
		}
		s := e.hist()
		var ex []*Exemplar
		if om && e.exemplars != nil {
			ex = e.exemplars()
		}
		var cum int64
		for i, b := range s.Buckets {
			cum += b.Count
			le := math.Inf(+1)
			if b.Le != math.MaxInt64 {
				le = float64(b.Le) * e.scale
			}
			suffix := ""
			if i < len(ex) && ex[i] != nil {
				suffix = formatExemplar(ex[i], e.scale)
			}
			ew.printf("%s_bucket{le=%q} %d%s\n", e.name, formatFloat(le), cum, suffix)
		}
		ew.printf("%s_sum %s\n", e.name, formatFloat(float64(s.Sum)*e.scale))
		// cum, not s.Count: the bucket counts and the count field are
		// distinct atomics, so under concurrent writes only the bucket
		// sum is guaranteed consistent with the _bucket lines above.
		ew.printf("%s_count %d\n", e.name, cum)
	}
	if om {
		ew.printf("# EOF\n")
	}
	return ew.err
}

// errWriter keeps the first write error and drops every later write.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, a ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, a...)
	}
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
