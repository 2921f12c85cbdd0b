package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/xtrace"
)

// exemplarRun executes the whole list with metrics on and tracing as
// given, returning the run histograms.
func exemplarRun(t *testing.T, tracing bool) *RunMetrics {
	t.Helper()
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	cfg.Metrics = true
	if tracing {
		cfg.Tracer = xtrace.New(xtrace.Options{})
		cfg.TraceSampleRate = 1
	}
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics-on run returned no histograms")
	}
	return res.Metrics
}

// TestFaultExemplarsLinkSpans asserts that with full span sampling every
// per-fault histogram carries at least one exemplar whose labels name a
// fault and a span ID, while a run without tracing records none (the
// exemplar path is gated on the live span, keeping the unsampled hot
// path allocation-free).
func TestFaultExemplarsLinkSpans(t *testing.T) {
	m := exemplarRun(t, true)
	for name, h := range map[string]*metrics.Histogram{
		"PairsPerFault":      m[PairsPerFault],
		"ExpansionsPerFault": m[ExpansionsPerFault],
		"SequencesAtStop":    m[SequencesAtStop],
		"FaultTimeNS":        m[FaultTimeNS],
	} {
		ex := h.Exemplars()
		if ex == nil {
			t.Errorf("%s: no exemplars recorded with TraceSampleRate 1", name)
			continue
		}
		found := false
		for _, e := range ex {
			if e == nil {
				continue
			}
			found = true
			if len(e.Labels) != 2 || e.Labels[0].Key != "fault" || e.Labels[1].Key != "span_id" {
				t.Errorf("%s: exemplar labels = %+v, want fault + span_id", name, e.Labels)
			} else if e.Labels[0].Val == "" || len(e.Labels[1].Val) != 16 {
				t.Errorf("%s: exemplar label values = %+v, want fault name + 16-hex span", name, e.Labels)
			}
		}
		if !found {
			t.Errorf("%s: exemplar slots allocated but all empty", name)
		}
	}

	for name, h := range map[string]*metrics.Histogram{
		"PairsPerFault": exemplarRun(t, false)[PairsPerFault],
		"FaultTimeNS":   exemplarRun(t, false)[FaultTimeNS],
	} {
		if ex := h.Exemplars(); ex != nil {
			t.Errorf("%s: exemplars recorded without tracing: %+v", name, ex)
		}
	}
}
