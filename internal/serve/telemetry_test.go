package serve

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// TestLiveCountersCoverAllFields guards the exposition: RegisterLiveCounters
// must expose every LiveSnapshot field exactly once — no field
// unexposed, no field scraped under two names — with the nanosecond
// fields in seconds.
func TestLiveCountersCoverAllFields(t *testing.T) {
	s := syntheticSnapshot()
	field := make(map[int64]string) // distinct value -> field name
	v := reflect.ValueOf(s)
	for _, f := range reflect.VisibleFields(v.Type()) {
		if !f.Anonymous {
			field[v.FieldByIndex(f.Index).Int()] = f.Name
		}
	}
	reg := metrics.NewRegistry()
	RegisterLiveCounters(reg, "x", func() core.LiveSnapshot { return s })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string) // field name -> family
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if strings.HasSuffix(name, "_seconds_total") {
			x *= 1e9
		}
		f, ok := field[int64(math.Round(x))]
		if !ok {
			t.Errorf("%s reads %s, the value of no field", name, val)
			continue
		}
		if prev, dup := seen[f]; dup {
			t.Errorf("field %s exposed as both %s and %s", f, prev, name)
		}
		seen[f] = name
	}
	for _, f := range field {
		if _, ok := seen[f]; !ok {
			t.Errorf("field %s has no counter", f)
		}
	}
	// syntheticKeys names every field once, and nothing else.
	listed := make(map[string]bool)
	for _, key := range syntheticKeys {
		if listed[key] {
			t.Errorf("syntheticKeys lists %q twice", key)
		}
		listed[key] = true
	}
	if len(listed) != len(field) {
		t.Errorf("syntheticKeys lists %d keys for %d fields", len(listed), len(field))
	}
}

// TestHistogramTable checks the histogram table against its sinks: each
// row has a unique family and label, RegisterLiveHistograms exposes it
// once, and FormatRunStats prints it once, each reading the row's own
// histogram (row h holds h+1 observations).
func TestHistogramTable(t *testing.T) {
	hists := core.Hists()
	var m core.RunMetrics
	families, labels := make(map[string]bool), make(map[string]bool)
	for h, d := range hists {
		if families[d.Family] || labels[d.Label] {
			t.Errorf("row %d reuses family %q or label %q", h, d.Family, d.Label)
		}
		families[d.Family], labels[d.Label] = true, true
		m[h] = metrics.NewHistogram(metrics.ExpBounds(1, 2, 4)...)
		for i := 0; i <= h; i++ {
			m[h].Observe(3)
		}
	}
	reg := metrics.NewRegistry()
	RegisterLiveHistograms(reg, "x", func() *core.RunMetrics { return &m })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposed := buf.String()
	stats := report.FormatRunStats(&core.Result{Metrics: &m})
	for h, d := range hists {
		if n := strings.Count(exposed, "# TYPE x_"+d.Family+" histogram\n"); n != 1 {
			t.Errorf("family %s registered %d times", d.Family, n)
		}
		if want := fmt.Sprintf("x_%s_count %d\n", d.Family, h+1); !strings.Contains(exposed, want) {
			t.Errorf("exposition lacks %q", want)
		}
		if n := strings.Count(stats, "  "+d.Label+":"); n != 1 {
			t.Errorf("label %q printed %d times", d.Label, n)
		}
		if want := fmt.Sprintf("  %-18sn=%d ", d.Label+":", h+1); !strings.Contains(stats, want) {
			t.Errorf("run stats lack %q:\n%s", want, stats)
		}
	}
}

// TestServerScrapeReadsSourcesOnce counts the reads behind one scrape
// of a server holding several finished runs: the live-snapshot sum and
// the histogram source registered the way NewServer registers them are
// each called once per scrape, in both formats, and render the same
// lines as the server's own exposition.
func TestServerScrapeReadsSourcesOnce(t *testing.T) {
	s, ts := newTestServer(t)
	for seed := int64(1); seed <= 3; seed++ {
		st := postRun(t, ts, RunRequest{Circuit: "s27", Random: 8, Seed: seed, Workers: 1})
		if got := waitDone(t, ts, st.ID); got.Status != StatusDone {
			t.Fatalf("run %s ended %s: %s", st.ID, got.Status, got.Error)
		}
	}
	var snaps, hists int
	reg := metrics.NewRegistry()
	RegisterLiveCounters(reg, s.cfg.Prefix, func() core.LiveSnapshot { snaps++; return s.liveSnapshot() })
	RegisterLiveHistograms(reg, s.cfg.Prefix, func() *core.RunMetrics { hists++; return s.latestMetrics() })
	for _, om := range []bool{false, true} {
		write, serverWrite := reg.WritePrometheus, s.Registry().WritePrometheus
		if om {
			write, serverWrite = reg.WriteOpenMetrics, s.Registry().WriteOpenMetrics
		}
		snaps, hists = 0, 0
		var got, full strings.Builder
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		if snaps != 1 || hists != 1 {
			t.Errorf("openmetrics=%v: one scrape read the live snapshot %d times and the histograms %d times, want 1 and 1",
				om, snaps, hists)
		}
		if err := serverWrite(&full); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.SplitAfter(got.String(), "\n") {
			if !strings.Contains(full.String(), line) {
				t.Errorf("openmetrics=%v: the server's exposition lacks %q", om, line)
			}
		}
		if !strings.Contains(got.String(), s.cfg.Prefix+"_runs_done_total 3\n") {
			t.Errorf("openmetrics=%v: scrape does not sum the three runs:\n%s", om, got.String())
		}
	}
}
