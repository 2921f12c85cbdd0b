package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// statsSetup builds the sg208 run inputs shared by the stats tests.
func statsSetup(t *testing.T) (*netlist.Circuit, seqsim.Sequence, []fault.Fault) {
	t.Helper()
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	return c, T, fault.CollapsedList(c)
}

// countSnapshot strips a histogram snapshot down to its deterministic
// part (everything but wall-clock content is scheduling-invariant).
func countSnapshot(h *metrics.Histogram) metrics.Snapshot {
	s := h.Snapshot()
	return s
}

// TestStagesSerialParallelCrossCheck runs the same fault list serially
// and on 8 workers and asserts every scheduling-invariant Stages field
// agrees: the per-fault work counters are deterministic, so their sums
// must not depend on how faults were distributed (and must not be
// double-counted or dropped by the per-worker merge).
func TestStagesSerialParallelCrossCheck(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	run := func(workers int) *Result {
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if workers == 1 {
			res, err = s.Run(faults, nil)
		} else {
			res, err = s.RunParallel(faults, workers, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ser := run(1)
	par := run(8)

	if ser.MOTFaults != par.MOTFaults {
		t.Errorf("MOTFaults: serial %d, parallel %d", ser.MOTFaults, par.MOTFaults)
	}
	if want := int64(len(faults)) - ser.Stages.PrescreenDropped - ser.Stages.PrescreenPrunedC; ser.MOTFaults != want {
		t.Errorf("MOTFaults = %d, want %d (total - dropped - lane-pruned)", ser.MOTFaults, want)
	}
	if ser.Stages.ImplyCalls != par.Stages.ImplyCalls {
		t.Errorf("ImplyCalls: serial %d, parallel %d", ser.Stages.ImplyCalls, par.Stages.ImplyCalls)
	}
	if ser.Stages.ImplyCalls == 0 {
		t.Error("ImplyCalls = 0; implication instrumentation not reached")
	}
	if ser.Stages.ImplyLaneEvals != par.Stages.ImplyLaneEvals {
		t.Errorf("ImplyLaneEvals: serial %d, parallel %d", ser.Stages.ImplyLaneEvals, par.Stages.ImplyLaneEvals)
	}
	if ser.Stages.ImplyLaneEvals == 0 {
		t.Error("ImplyLaneEvals = 0; lane implication passes not counted")
	}
	if ser.Stages.ImplyMemoHits != par.Stages.ImplyMemoHits {
		t.Errorf("ImplyMemoHits: serial %d, parallel %d", ser.Stages.ImplyMemoHits, par.Stages.ImplyMemoHits)
	}
	if ser.Stages.ImplyMemoHits == 0 {
		t.Error("ImplyMemoHits = 0; no pair served from the fault-free lane memo")
	}
	type resimCounts struct{ passes, frames, gateEvals int64 }
	resim := func(st Stages) resimCounts {
		return resimCounts{st.ResimVectorPasses, st.ResimVectorFrames, st.ResimGateEvals}
	}
	if resim(ser.Stages) != resim(par.Stages) {
		t.Errorf("resim counters differ: serial %+v, parallel %+v", resim(ser.Stages), resim(par.Stages))
	}
	if ser.Stages.ResimGateEvals == 0 {
		t.Error("ResimGateEvals = 0; vector resimulation not counted")
	}
	type simCounts struct{ frames, gateEvals, events int64 }
	sim := func(st Stages) simCounts { return simCounts{st.EventFrames, st.EventGateEvals, st.Events} }
	if sim(ser.Stages) != sim(par.Stages) {
		t.Errorf("sim stats differ:\n  serial:   %+v\n  parallel: %+v", sim(ser.Stages), sim(par.Stages))
	}
	if ser.Stages.EventFrames == 0 {
		t.Error("EventFrames = 0; step-0 resimulation not counted")
	}
	if ser.Stages.Events == 0 || ser.Stages.EventGateEvals == 0 {
		t.Errorf("event counters empty: %+v", sim(ser.Stages))
	}
	if ser.Stages.PrescreenFrames != par.Stages.PrescreenFrames ||
		ser.Stages.PrescreenSavedFrames != par.Stages.PrescreenSavedFrames ||
		ser.Stages.PrescreenGateEvals != par.Stages.PrescreenGateEvals {
		t.Errorf("prescreen counters differ: serial %d/%d/%d, parallel %d/%d/%d",
			ser.Stages.PrescreenFrames, ser.Stages.PrescreenSavedFrames, ser.Stages.PrescreenGateEvals,
			par.Stages.PrescreenFrames, par.Stages.PrescreenSavedFrames, par.Stages.PrescreenGateEvals)
	}
	if ser.Stages.PrescreenFrames == 0 || ser.Stages.PrescreenGateEvals == 0 {
		t.Error("PrescreenFrames or PrescreenGateEvals = 0; prescreen instrumentation not reached")
	}
	if ser.Stages.Step0NS <= 0 || ser.Stages.CollectNS <= 0 {
		t.Errorf("serial stage times not recorded: %+v", ser.Stages)
	}

	// The per-fault histograms observe deterministic values (pairs,
	// expansions, sequences), so their full snapshots agree; only the
	// wall-time histogram is scheduling-dependent beyond its count.
	for _, h := range []struct {
		name     string
		ser, par *metrics.Histogram
	}{
		{"pairs", ser.Metrics[PairsPerFault], par.Metrics[PairsPerFault]},
		{"expansions", ser.Metrics[ExpansionsPerFault], par.Metrics[ExpansionsPerFault]},
		{"sequences", ser.Metrics[SequencesAtStop], par.Metrics[SequencesAtStop]},
	} {
		a, b := countSnapshot(h.ser), countSnapshot(h.par)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s histogram differs:\n  serial:   %s\n  parallel: %s", h.name, aj, bj)
		}
	}
	if sc, pc := ser.Metrics[FaultTimeNS].Count(), par.Metrics[FaultTimeNS].Count(); sc != pc {
		t.Errorf("fault-time histogram count: serial %d, parallel %d", sc, pc)
	}
	if got, want := ser.Metrics[PairsPerFault].Count(), ser.MOTFaults; got != want {
		t.Errorf("pairs histogram count = %d, want MOTFaults = %d", got, want)
	}
}

// TestStagesMetricsOffCrossCheck asserts that disabling Metrics leaves
// the breakdown empty without changing outcomes.
func TestStagesMetricsOffCrossCheck(t *testing.T) {
	c, T, faults := statsSetup(t)
	on := DefaultConfig()
	off := DefaultConfig()
	off.Metrics = false
	simOn, err := NewSimulator(c, T, on)
	if err != nil {
		t.Fatal(err)
	}
	simOff, err := NewSimulator(c, T, off)
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := simOn.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := simOff.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range resOn.Outcomes {
		if resOn.Outcomes[k] != resOff.Outcomes[k] {
			t.Fatalf("fault %s differs with metrics off:\n  on:  %+v\n  off: %+v",
				faults[k].Name(c), resOn.Outcomes[k], resOff.Outcomes[k])
		}
	}
	if resOff.Metrics != nil {
		t.Error("metrics-off run returned histograms")
	}
	if resOff.Stages.Work != (Work{}) {
		t.Errorf("metrics-off run recorded a breakdown: %+v", resOff.Stages)
	}
	if resOn.Metrics == nil || resOn.Stages.Work == (Work{}) {
		t.Errorf("metrics-on run recorded nothing: %+v", resOn.Stages)
	}
	// The pipeline size is an outcome count, kept with metrics off too.
	want := int64(resOff.Total) - resOff.Stages.PrescreenDropped - resOff.Stages.PrescreenPrunedC
	if resOff.MOTFaults != want || resOff.MOTFaults != resOn.MOTFaults {
		t.Errorf("metrics-off MOTFaults = %d, want %d (total - dropped - pruned (C)) and the metrics-on %d",
			resOff.MOTFaults, want, resOn.MOTFaults)
	}
}

// traceRun executes one whole-list run capturing the JSONL trace.
func traceRun(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config, workers int) (string, *Result) {
	t.Helper()
	var buf bytes.Buffer
	cfg.TraceWriter = &buf
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if workers == 1 {
		res, err = s.Run(faults, nil)
	} else {
		res, err = s.RunParallel(faults, workers, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), res
}

// TestTraceWorkersCrossCheck asserts the default trace is byte-identical
// for 1 and 8 workers: events carry only deterministic fields and are
// emitted in fault-list order after the run.
func TestTraceWorkersCrossCheck(t *testing.T) {
	c, T, faults := statsSetup(t)
	tr1, res := traceRun(t, c, T, faults, DefaultConfig(), 1)
	tr8, _ := traceRun(t, c, T, faults, DefaultConfig(), 8)
	if tr1 != tr8 {
		t.Fatalf("trace differs between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", tr1, tr8)
	}
	lines := strings.Split(strings.TrimRight(tr1, "\n"), "\n")
	if len(lines) != len(faults) {
		t.Fatalf("trace has %d lines, want one per fault (%d)", len(lines), len(faults))
	}
	var convs, timings int
	for i, line := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if ev.Fault != faults[i].Name(c) {
			t.Fatalf("line %d names %q, want %q (fault-list order)", i, ev.Fault, faults[i].Name(c))
		}
		if ev.At != nil {
			convs++
		}
		if ev.Timing != nil {
			timings++
		}
	}
	if int64(convs) != res.Conv {
		t.Errorf("%d events carry a detection site, want %d (conventional detections)", convs, res.Conv)
	}
	if timings != 0 {
		t.Errorf("%d events carry timings without TraceTimings", timings)
	}
}

// TestTraceTimingsParallel checks the opt-in timing fields: present on
// faults that entered the per-fault pipeline, absent without the flag,
// and rejected without Metrics.
func TestTraceTimingsParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceTimings = true
	cfg.Metrics = false
	if err := cfg.Validate(); err == nil {
		t.Error("TraceTimings without Metrics not rejected")
	}
	cfg.Metrics = true

	c, T, faults := statsSetup(t)
	tr, res := traceRun(t, c, T, faults, cfg, 4)
	var withTiming, nonzero int
	for _, line := range strings.Split(strings.TrimRight(tr, "\n"), "\n") {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Timing != nil {
			withTiming++
			if ev.Timing.Total > 0 {
				nonzero++
			}
		}
	}
	if withTiming != len(faults) {
		t.Errorf("%d events carry timings, want all %d", withTiming, len(faults))
	}
	if want := res.MOTFaults; int64(nonzero) != want {
		t.Errorf("%d events have nonzero total time, want %d (MOT-pipeline faults)", nonzero, want)
	}
}
