package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xtrace"
)

// detSpanKey reduces a span to its deterministic fields: the ID (a hash
// of parent, name and key), name and attributes. Timestamps, durations
// and track assignments are scheduling-dependent by design; "worker"
// spans count the faults each worker claimed and are excluded entirely.
func detSpans(tr *xtrace.Tracer) []string {
	spans, _ := tr.Snapshot()
	var out []string
	for _, s := range spans {
		if s.Name == "worker" {
			continue
		}
		out = append(out, fmt.Sprintf("%016x %016x %s %v", uint64(s.ID), uint64(s.Parent), s.Name, s.Attrs))
	}
	sort.Strings(out)
	return out
}

// spanRun executes the whole-list run with tracing at full sampling and
// returns the tracer.
func spanRun(t *testing.T, workers int, rate float64) *xtrace.Tracer {
	t.Helper()
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	cfg.Tracer = xtrace.New(xtrace.Options{})
	cfg.TraceSampleRate = rate
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunParallel(faults, workers, nil); err != nil {
		t.Fatal(err)
	}
	return cfg.Tracer
}

// TestSpanDeterminismAcrossWorkers asserts the deterministic span
// fields (IDs, parent links, names, attributes) are byte-identical
// between a serial run and an 8-worker run: every span except the
// scheduling-defined "worker" spans must match exactly.
func TestSpanDeterminismAcrossWorkers(t *testing.T) {
	serial := detSpans(spanRun(t, 1, 1))
	parallel := detSpans(spanRun(t, 8, 1))
	if len(serial) == 0 {
		t.Fatal("serial run emitted no spans")
	}
	a := bytes.Join(toBytes(serial), []byte("\n"))
	b := bytes.Join(toBytes(parallel), []byte("\n"))
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic span fields differ between 1 and 8 workers:\nserial   %d spans\nparallel %d spans\n%s",
			len(serial), len(parallel), firstDiff(serial, parallel))
	}
}

func toBytes(lines []string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first diff at %d:\n  serial:   %s\n  parallel: %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d", len(a), len(b))
}

// TestSpanTreeShape checks the span hierarchy of a traced run: one run
// span at the root, prescreen and mot stages under it, batch spans
// under the prescreen, fault spans under the mot stage, and expand /
// resim sub-spans under sampled faults.
func TestSpanTreeShape(t *testing.T) {
	tr := spanRun(t, 4, 1)
	spans, _ := tr.Snapshot()
	byID := make(map[xtrace.SpanID]xtrace.Span, len(spans))
	count := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		count[s.Name]++
	}
	var runID, preID, motID xtrace.SpanID
	for _, s := range spans {
		switch s.Name {
		case "run sg208":
			runID = s.ID
		case "prescreen":
			preID = s.ID
		case "mot":
			motID = s.ID
		}
	}
	if runID == 0 || preID == 0 || motID == 0 {
		t.Fatalf("missing root spans: run=%x prescreen=%x mot=%x", runID, preID, motID)
	}
	if byID[preID].Parent != runID || byID[motID].Parent != runID {
		t.Fatalf("stage spans not parented under the run span")
	}
	if count["batch"] == 0 || count["fault"] == 0 || count["expand"] == 0 || count["resim"] == 0 {
		t.Fatalf("span census missing kinds: %v", count)
	}
	for _, s := range spans {
		switch s.Name {
		case "batch":
			if s.Parent != preID {
				t.Fatalf("batch span parented to %x, want prescreen %x", s.Parent, preID)
			}
		case "fault":
			if s.Parent != motID {
				t.Fatalf("fault span parented to %x, want mot %x", s.Parent, motID)
			}
		case "expand", "resim":
			if p, ok := byID[s.Parent]; !ok || p.Name != "fault" {
				t.Fatalf("%s span not parented under a fault span", s.Name)
			}
		case "worker":
			if s.Parent != motID {
				t.Fatalf("worker span parented to %x, want mot %x", s.Parent, motID)
			}
		}
		if s.Name != "run sg208" && s.Dur < 0 {
			t.Fatalf("span %s never ended", s.Name)
		}
	}
}

// TestSpanWorkerTracks asserts every worker count, one included, puts
// its fault spans on "worker NN" tracks with one "worker" span per
// worker, and that the worker spans together claim every pipeline fault.
func TestSpanWorkerTracks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spans, tracks := spanRun(t, workers, 1).Snapshot()
		var nWorker, claimed, faults int
		for _, s := range spans {
			switch s.Name {
			case "worker":
				nWorker++
				if want := fmt.Sprintf("worker %02d", nWorker-1); !slices.Contains(tracks, want) {
					t.Errorf("workers=%d: no track %q among %q", workers, want, tracks)
				}
				for _, a := range s.Attrs {
					if a.Key == "faults" {
						n, _ := strconv.Atoi(a.Val)
						claimed += n
					}
				}
			case "fault":
				faults++
				if label := tracks[s.Track]; !strings.HasPrefix(label, "worker ") {
					t.Errorf("workers=%d: fault span on track %q", workers, label)
				}
			}
		}
		if nWorker != workers {
			t.Errorf("workers=%d: %d worker spans", workers, nWorker)
		}
		if claimed != faults {
			t.Errorf("workers=%d: worker spans claim %d faults, %d fault spans (full sampling)", workers, claimed, faults)
		}
	}
}

// TestSpanSampling asserts the default rate traces a strict subset of
// faults and that outcomes are unaffected by tracing.
func TestSpanSampling(t *testing.T) {
	full, _ := spanRun(t, 1, 1).Snapshot()
	def, _ := spanRun(t, 1, 0).Snapshot() // 0 → default 0.05
	nFull, nDef := 0, 0
	for _, s := range full {
		if s.Name == "fault" {
			nFull++
		}
	}
	for _, s := range def {
		if s.Name == "fault" {
			nDef++
		}
	}
	if nDef == 0 || nDef >= nFull {
		t.Fatalf("default sampling traced %d of %d faults", nDef, nFull)
	}
}

// TestSpanOutcomesUnchanged cross-checks that a traced run classifies
// faults identically to an untraced one.
func TestSpanOutcomesUnchanged(t *testing.T) {
	c, T, faults := statsSetup(t)
	run := func(tr *xtrace.Tracer) *Result {
		cfg := DefaultConfig()
		cfg.Tracer = tr
		cfg.TraceSampleRate = 1
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunParallel(faults, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(xtrace.New(xtrace.Options{}))
	if plain.Conv != traced.Conv || plain.MOT != traced.MOT || plain.Pairs != traced.Pairs ||
		plain.Sequences != traced.Sequences || plain.Expansions != traced.Expansions {
		t.Fatalf("tracing changed outcomes: plain %d/%d traced %d/%d",
			plain.Conv, plain.MOT, traced.Conv, traced.MOT)
	}
}

// TestSpanChromeExport round-trips a real run's trace through the
// Chrome trace-event exporter.
func TestSpanChromeExport(t *testing.T) {
	tr := spanRun(t, 4, 1)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	if st := tr.Stats(); st.Spans == 0 {
		t.Fatal("tracer recorded no spans")
	}
}

// TestTraceSampleRateValidation rejects out-of-range sampling rates.
func TestTraceSampleRateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceSampleRate = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("TraceSampleRate 1.5 accepted")
	}
	cfg.TraceSampleRate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("TraceSampleRate -0.1 accepted")
	}
}
