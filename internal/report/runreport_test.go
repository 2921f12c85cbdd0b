package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// smallRun executes a metrics-on whole-list run on s27.
func smallRun(t *testing.T, metricsOn bool) *core.Result {
	t.Helper()
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	cfg := core.DefaultConfig()
	cfg.Metrics = metricsOn
	s, err := core.NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(fault.CollapsedList(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunReportJSON(t *testing.T) {
	res := smallRun(t, true)
	rep := NewRunReport(res, "proposed", 20, 1, 5*time.Millisecond)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"circuit", "stages", "histograms", "coverage", "elapsed_ns"} {
		if _, ok := back[key]; !ok {
			t.Errorf("report missing %q:\n%s", key, data)
		}
	}
	stages, ok := back["stages"].(map[string]any)
	if !ok {
		t.Fatalf("stages not an object:\n%s", data)
	}
	for _, key := range []string{"step0_ns", "collect_ns", "imply_ns", "expand_ns", "resim_ns", "mot_faults", "pool", "sim"} {
		if _, ok := stages[key]; !ok {
			t.Errorf("stages missing %q:\n%s", key, data)
		}
	}
	if rep.Detected != res.Detected() || rep.Coverage <= 0 {
		t.Errorf("summary fields wrong: %+v", rep)
	}
}

func TestRunReportMetricsOff(t *testing.T) {
	res := smallRun(t, false)
	rep := NewRunReport(res, "proposed", 20, 1, time.Millisecond)
	if rep.Histograms != nil {
		t.Error("metrics-off report carries histograms")
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestFormatRunStats(t *testing.T) {
	res := smallRun(t, true)
	out := FormatRunStats(res)
	for _, want := range []string{"stage breakdown", "pair collection", "implication calls", "pairs/fault", "fault time"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRunStats missing %q:\n%s", want, out)
		}
	}
	if off := FormatRunStats(smallRun(t, false)); off != "" {
		t.Errorf("metrics-off stats not empty:\n%s", off)
	}
}

// liveRun executes one sg208 whole-list run publishing live snapshots.
func liveRun(t *testing.T, workers int) *core.Result {
	t.Helper()
	c, err := circuits.ByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	T := tgen.Random(c.NumInputs(), 24, 1)
	cfg := core.DefaultConfig()
	cfg.Live = &core.LiveStats{}
	s, err := core.NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunParallel(fault.CollapsedList(c), workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stripTimeLines removes the wall-clock "stage seconds" line, leaving
// only the deterministic counter lines.
func stripTimeLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "stage seconds:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestFormatLiveSnapshotMatchesMergedStats asserts the live-snapshot
// section renders the same counters as the final merged result — and
// renders identically between a serial and an 8-worker run.
func TestFormatLiveSnapshotMatchesMergedStats(t *testing.T) {
	resS := liveRun(t, 1)
	resP := liveRun(t, 8)
	outS := FormatLiveSnapshot(resS.Live.Snapshot())
	outP := FormatLiveSnapshot(resP.Live.Snapshot())
	if s, p := stripTimeLines(outS), stripTimeLines(outP); s != p {
		t.Errorf("live section differs between 1 and 8 workers:\n%s\n---\n%s", s, p)
	}
	// The rendered counters are the merged result's values.
	res := resP
	for _, want := range []string{
		fmt.Sprintf("1/1 runs, %d/%d faults", res.Total, res.Total),
		fmt.Sprintf("detected: %d conventional + %d MOT, %d undetected (%d pruned by condition C)",
			res.Conv, res.MOT, res.Total-res.Detected(), res.PrunedConditionC),
		fmt.Sprintf("prescreen: %d passes dropped %d faults, pruned %d by condition C (%d frames, %d gate evals)",
			res.Stages.PrescreenPasses, res.Stages.PrescreenDropped, res.Stages.PrescreenPrunedC,
			res.Stages.PrescreenFrames, res.Stages.PrescreenGateEvals),
		fmt.Sprintf("pipeline: %d faults, %d pairs, %d expansions, %d sequences, %d implication calls (%d lane gate evals)",
			res.Stages.MOTFaults, res.Pairs, res.Expansions, res.Sequences, res.Stages.ImplyCalls, res.Stages.ImplyLaneEvals),
		fmt.Sprintf("serial sim frames: %d event (%d gate evals, %d events), %d full",
			res.Stages.Sim.EventFrames, res.Stages.Sim.EventGateEvals, res.Stages.Sim.Events,
			res.Stages.Sim.FullFrames),
	} {
		if !strings.Contains(outP, want) {
			t.Errorf("live section missing %q:\n%s", want, outP)
		}
	}
	// FormatRunStats embeds the section when the run published live.
	if !strings.Contains(FormatRunStats(res), "live snapshot (") {
		t.Error("FormatRunStats omitted the live section")
	}
	if strings.Contains(FormatRunStats(smallRun(t, true)), "live snapshot (") {
		t.Error("FormatRunStats rendered a live section without Config.Live")
	}
}

func TestResultAttrs(t *testing.T) {
	res := smallRun(t, true)
	attrs := ResultAttrs(res)
	if len(attrs)%2 != 0 {
		t.Fatalf("attrs not key-value pairs: %v", attrs)
	}
	got := map[string]any{}
	for i := 0; i < len(attrs); i += 2 {
		got[attrs[i].(string)] = attrs[i+1]
	}
	if got["circuit"] != res.Circuit || got["faults"] != res.Total || got["conv"] != res.Conv {
		t.Errorf("ResultAttrs = %v", got)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "faults")
	base := time.Unix(0, 0)
	tick := 0
	p.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 200 * time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		p.Update(i, 10)
	}
	p.Done()
	out := buf.String()
	if !strings.Contains(out, "10/10 faults") {
		t.Errorf("final update missing:\n%q", out)
	}
	if !strings.Contains(out, "/s") || !strings.Contains(out, "ETA") {
		t.Errorf("rate/ETA missing:\n%q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Done did not terminate the line:\n%q", out)
	}
}
