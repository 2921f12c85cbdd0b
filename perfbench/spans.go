package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/xtrace"
)

// spanSeconds returns the durations of the spans named name, in seconds.
func spanSeconds(spans []xtrace.Span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && s.Dur >= 0 {
			xs = append(xs, float64(s.Dur)*1e-9)
		}
	}
	return xs
}

// spanLayers sets the per-layer metrics the benchmark's own spans
// measure: the median duration of each set-up call, and the
// distribution of SimulateFault calls with its sample count.
func spanLayers(spans []xtrace.Span, m map[string]float64, out io.Writer) {
	for name, metric := range map[string]string{
		"circuits.generate": "circuits.generate_s",
		"fault.collapse":    "fault.collapse_s",
		"cir.compile":       "cir.compile_s",
		"seqsim.good_sim":   "seqsim.good_sim_s",
	} {
		m[metric] = median(spanSeconds(spans, name))
	}
	us := spanSeconds(spans, "core.simulate_fault")
	if len(us) == 0 {
		return
	}
	for i := range us {
		us[i] *= 1e6
	}
	d := summarize(us)
	fmt.Fprintf(out, "SimulateFault us: %s\n", d)
	m["core.fault_p50_us"], m["core.fault_p99_us"], m["core.fault_samples"] = d.P50, d.P99, float64(d.N)
}

// selfTime is the time the spans of one name spent outside their
// children: each span's duration minus the union of its children's
// intervals within it.
type selfTime struct {
	name        string
	n           int
	total, self time.Duration
}

func selfTimes(spans []xtrace.Span) []selfTime {
	children := map[xtrace.SpanID][]xtrace.Span{}
	for _, s := range spans {
		if s.Parent != 0 && s.Dur >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		if s.Dur < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
		}
		st.n++
		st.total += time.Duration(s.Dur)
		st.self += time.Duration(s.Dur - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent xtrace.Span, kids []xtrace.Span) int64 {
	lo, hi := parent.Start, parent.Start+parent.Dur
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}

// finishSpans prints the self-time table and writes the spans as JSONL.
func finishSpans(o opts, spans []xtrace.Span, tracks []string) error {
	fmt.Fprintf(o.out, "self time by span (%d spans on %d tracks):\n", len(spans), len(tracks))
	fmt.Fprintf(o.out, "  %-24s %-9s %8s %12s %12s\n", "span", "layer", "count", "total s", "self s")
	for _, st := range selfTimes(spans) {
		layer, _, _ := strings.Cut(st.name, ".")
		fmt.Fprintf(o.out, "  %-24s %-9s %8d %12.4f %12.4f\n", st.name, layer, st.n, st.total.Seconds(), st.self.Seconds())
	}
	if err := os.MkdirAll(filepath.Dir(o.spansPath), 0o755); err != nil {
		return err
	}
	f, err := os.Create(o.spansPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := xtrace.WriteJSONL(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.out, "spans written to %s\n", o.spansPath)
	return nil
}
