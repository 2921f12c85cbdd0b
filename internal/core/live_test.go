package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/xtrace"
)

// liveRun executes one whole-list run publishing into a fresh LiveStats.
func liveRun(t *testing.T, workers int, mutate func(*Config)) (*Result, *LiveStats) {
	t.Helper()
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	live := &LiveStats{}
	cfg.Live = live
	if mutate != nil {
		mutate(&cfg)
	}
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
	return res, live
}

// deterministic strips a snapshot down to its scheduling-invariant
// fields (everything except the wall-clock *NS measurements).
func deterministic(s LiveSnapshot) LiveSnapshot {
	s.ImplyNS, s.Step0NS, s.CollectNS, s.ExpandNS, s.ResimNS, s.TotalNS = 0, 0, 0, 0, 0, 0
	return s
}

// resultSnapshot is the live snapshot one run must leave behind, built
// from its Result: every field, the wall-clock ones included (TotalNS is
// the sum of the per-fault times the FaultTimeNS histogram observed),
// since both sides sum the same fault records.
func resultSnapshot(res *Result) LiveSnapshot {
	work := res.Stages.Work
	if res.Metrics != nil {
		work.TotalNS = res.Metrics[FaultTimeNS].Snapshot().Sum
	}
	return LiveSnapshot{
		RunsStarted:     1,
		RunsDone:        1,
		FaultsTotal:     int64(res.Total),
		Tally:           res.Tally,
		PrescreenCounts: res.Stages.PrescreenCounts,
		Work:            work,
	}
}

// snapshotFields returns the counter fields of *s, Work's included, and
// their names, in field order.
func snapshotFields(s *LiveSnapshot) ([]reflect.Value, []string) {
	v := reflect.ValueOf(s).Elem()
	var fields []reflect.Value
	var names []string
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue
		}
		fields = append(fields, v.FieldByIndex(f.Index))
		names = append(names, f.Name)
	}
	return fields, names
}

// diffSnapshots lists the fields where got and want differ.
func diffSnapshots(got, want LiveSnapshot) []string {
	var out []string
	g, names := snapshotFields(&got)
	w, _ := snapshotFields(&want)
	for i := range g {
		if a, b := g[i].Int(), w[i].Int(); a != b {
			out = append(out, fmt.Sprintf("%s = %d, want %d", names[i], a, b))
		}
	}
	return out
}

// traceTally sums the lines of a JSONL trace into the Tally they
// describe; MOTFaults, which no line records, stays 0.
func traceTally(t *testing.T, trace string) Tally {
	t.Helper()
	var sum Tally
	for _, line := range strings.Split(strings.TrimRight(trace, "\n"), "\n") {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		sum.FaultsDone++
		switch ev.Outcome {
		case DetectedConventional.String():
			sum.Conv++
		case DetectedMOT.String():
			sum.MOT++
			sum.CtrDet += int64(ev.CtrDet)
			sum.CtrConf += int64(ev.CtrConf)
			sum.CtrExtra += int64(ev.CtrExtra)
		}
		sum.PrunedConditionC += int64(b2i(ev.PrunedC))
		sum.Identified += int64(b2i(ev.Identified))
		sum.Pairs += int64(ev.Pairs)
		sum.Expansions += int64(ev.Expansions)
		sum.Sequences += int64(ev.Sequences)
	}
	return sum
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLiveSnapshotSerialParallelCrossCheck asserts that every sink of a
// run's outcomes agrees, at 1 and 4 workers, with the prescreen on and
// off and with metrics on and off: Result's tally, the final live
// snapshot (in every field, so a /metrics scrape taken after the run
// reports exactly what the batch report does), the sums over the JSONL
// trace lines and the counts of the per-fault histograms. The final
// snapshot is also scheduling-invariant.
func TestLiveSnapshotSerialParallelCrossCheck(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, prescreen := range []bool{true, false} {
		for _, metricsOn := range []bool{true, false} {
			name := fmt.Sprintf("prescreen=%v/metrics=%v", prescreen, metricsOn)
			var snaps []LiveSnapshot
			for _, workers := range []int{1, 4} {
				cfg := DefaultConfig()
				cfg.Prescreen, cfg.Metrics = prescreen, metricsOn
				cfg.Live = &LiveStats{}
				trace, res := traceRun(t, c, T, faults, cfg, workers)
				s := res.Live.Snapshot()
				snaps = append(snaps, deterministic(s))
				for _, d := range diffSnapshots(s, resultSnapshot(res)) {
					t.Errorf("%s, %d workers: final snapshot %s (merged result)", name, workers, d)
				}
				st := &res.Stages
				want := traceTally(t, trace)
				want.MOTFaults = int64(res.Total) - st.PrescreenDropped - st.PrescreenPrunedC
				if res.Tally != want {
					t.Errorf("%s, %d workers: tally %+v, trace sums %+v", name, workers, res.Tally, want)
				}
				if res.MOT == 0 || res.CtrDet == 0 || res.CtrConf == 0 || res.CtrExtra == 0 || res.Expansions == 0 {
					t.Errorf("%s: the run exercises too few classes: %+v", name, res.Tally)
				}
				if (res.Metrics != nil) != metricsOn || (res.Live.Metrics() != nil) != metricsOn {
					t.Errorf("%s: histograms present = %v", name, res.Metrics != nil)
				}
				if res.Metrics == nil {
					continue
				}
				sums := map[string]int64{"pairs_per_fault": res.Pairs, "expansions_per_fault": res.Expansions, "sequences_at_stop": res.Sequences}
				for h, d := range Hists() {
					snap := res.Metrics[h].Snapshot()
					if d.PerFault && snap.Count != res.MOTFaults {
						t.Errorf("%s, %d workers: %s count %d, want MOTFaults %d", name, workers, d.Family, snap.Count, res.MOTFaults)
					}
					if sum, ok := sums[d.Family]; ok && snap.Sum != sum {
						t.Errorf("%s, %d workers: %s sum %d, want %d", name, workers, d.Family, snap.Sum, sum)
					}
				}
			}
			if snaps[0] != snaps[1] {
				t.Errorf("%s: live snapshot differs between 1 and 4 workers:\n  serial:   %+v\n  parallel: %+v", name, snaps[0], snaps[1])
			}
		}
	}
}

// sentinelSnapshot builds a LiveSnapshot whose i-th field holds the
// distinct value i+1, so any field a consumer drops or double-counts is
// detectable by value.
func sentinelSnapshot(t *testing.T) LiveSnapshot {
	t.Helper()
	var s LiveSnapshot
	fields, names := snapshotFields(&s)
	for i, f := range fields {
		if f.Kind() != reflect.Int64 {
			t.Fatalf("LiveSnapshot field %s is %s; the sentinel scheme assumes int64 — extend this test",
				names[i], f.Kind())
		}
		f.SetInt(int64(i + 1))
	}
	return s
}

// TestLiveSnapshotAddCoversAllFields guards every aggregate built with
// Add (LiveStats publications, serve's server-level /metrics sums):
// adding a field to LiveSnapshot without a counter table row fails this
// test instead of silently freezing one counter.
func TestLiveSnapshotAddCoversAllFields(t *testing.T) {
	s := sentinelSnapshot(t)
	sum := s
	sum.Add(s)
	fields, names := snapshotFields(&sum)
	for i, f := range fields {
		if want := int64(2 * (i + 1)); f.Int() != want {
			t.Errorf("Add dropped field %s: got %d, want %d", names[i], f.Int(), want)
		}
	}
}

// TestLiveScrapeParallel scrapes Snapshot in a loop while a 4-worker
// run publishes after every fault, and asserts every snapshot is
// consistent: no field goes backward between scrapes, and FaultsDone
// never lags Conv + MOT (so Undetected is never negative).
func TestLiveScrapeParallel(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	live := &LiveStats{}
	cfg.Live = live
	cfg.LiveEvery = 1
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		var prev LiveSnapshot
		for {
			cur := live.Snapshot()
			pv, _ := snapshotFields(&prev)
			cv, names := snapshotFields(&cur)
			for i := range cv {
				if cv[i].Int() < pv[i].Int() {
					t.Errorf("scrape %d: %s went backward: %d -> %d",
						n, names[i], pv[i].Int(), cv[i].Int())
				}
			}
			if cur.Undetected() < 0 {
				t.Errorf("scrape %d: FaultsDone %d < Conv %d + MOT %d", n, cur.FaultsDone, cur.Conv, cur.MOT)
			}
			prev = cur
			n++
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
		}
	}()
	res, err := s.RunParallel(faults, 4, nil)
	close(done)
	n := <-scrapes
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Snapshot().FaultsDone; got != int64(res.Total) {
		t.Errorf("final FaultsDone = %d, want %d", got, res.Total)
	}
	t.Logf("%d scrapes during the run", n)
}

// TestRunParallelPanicContained makes the resimulation panic inside the
// fault loop and asserts the run returns an error naming the fault, no
// result, and leaves no worker goroutine behind, at 1 and 4 workers.
func TestRunParallelPanicContained(t *testing.T) {
	c, T, faults := statsSetup(t)
	base := runtime.NumGoroutine()
	resimHook = func(s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion, got bool) {
		panic("injected resim panic")
	}
	defer func() { resimHook = nil }()
	for _, workers := range []int{1, 4} {
		s, err := NewSimulator(c, T, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunParallel(faults, workers, nil)
		if res != nil {
			t.Errorf("workers=%d: panicking run returned a result", workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", workers)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "core: fault ") || !strings.Contains(msg, "panic: injected resim panic") {
			t.Errorf("workers=%d: error does not name the fault and the panic: %.200s", workers, msg)
		}
		if !strings.Contains(msg, "goroutine ") {
			t.Errorf("workers=%d: error carries no stack: %.200s", workers, msg)
		}
		named := false
		for _, f := range faults {
			if strings.HasPrefix(msg, "core: fault "+f.Name(c)+": panic: ") {
				named = true
				break
			}
		}
		if !named {
			t.Errorf("workers=%d: error names no fault of the list: %.200s", workers, msg)
		}
	}
	// The workers have exited once RunParallel returns; give the runtime a
	// moment to retire them before counting.
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the panicking runs, %d before", n, base)
	}
}

// TestLiveSnapshotMonotonic scrapes the live stats after every fault of
// a serial run (cadence 1) and asserts every counter only ever grows —
// the property Prometheus counters require between scrapes — and that
// the snapshot is never behind the progress callback: the prescreen
// publishes the faults it settles (their callbacks come first), and
// each pipeline fault is published before its callback.
func TestLiveSnapshotMonotonic(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	live := &LiveStats{}
	cfg.Live = live
	cfg.LiveEvery = 1
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev LiveSnapshot
	moved := 0
	progress := func(done, total int) {
		cur := live.Snapshot()
		type pair struct {
			name      string
			prev, cur int64
		}
		for _, p := range []pair{
			{"FaultsDone", prev.FaultsDone, cur.FaultsDone},
			{"Conv", prev.Conv, cur.Conv},
			{"MOT", prev.MOT, cur.MOT},
			{"PrunedConditionC", prev.PrunedConditionC, cur.PrunedConditionC},
			{"MOTFaults", prev.MOTFaults, cur.MOTFaults},
			{"ImplyCalls", prev.ImplyCalls, cur.ImplyCalls},
			{"ImplyLaneEvals", prev.ImplyLaneEvals, cur.ImplyLaneEvals},
			{"Pairs", prev.Pairs, cur.Pairs},
			{"EventFrames", prev.EventFrames, cur.EventFrames},
			{"Step0NS", prev.Step0NS, cur.Step0NS},
			{"PrescreenFrames", prev.PrescreenFrames, cur.PrescreenFrames},
			{"PrescreenGateEvals", prev.PrescreenGateEvals, cur.PrescreenGateEvals},
		} {
			if p.cur < p.prev {
				t.Errorf("fault %d/%d: %s went backward: %d -> %d", done, total, p.name, p.prev, p.cur)
			}
		}
		if cur.FaultsDone < int64(done) {
			t.Errorf("fault %d/%d: FaultsDone = %d, behind progress", done, total, cur.FaultsDone)
		}
		if cur.FaultsDone > prev.FaultsDone {
			moved++
		}
		prev = cur
	}
	res, err := s.Run(faults, progress)
	if err != nil {
		t.Fatal(err)
	}
	if int64(moved) < res.MOTFaults {
		t.Errorf("FaultsDone moved on only %d of %d scrapes with cadence 1 (%d pipeline faults)",
			moved, res.Total, res.MOTFaults)
	}
	if got := live.Snapshot().FaultsDone; got != int64(res.Total) {
		t.Errorf("final FaultsDone = %d, want %d", got, res.Total)
	}
}

// TestLiveMetricsOffStillCounts asserts the detection counters work
// without Config.Metrics (stage times and frame counters then stay 0).
func TestLiveMetricsOffStillCounts(t *testing.T) {
	res, live := liveRun(t, 4, func(cfg *Config) { cfg.Metrics = false })
	s := live.Snapshot()
	if s.FaultsDone != int64(res.Total) || s.Tally != res.Tally {
		t.Errorf("snapshot counters wrong with metrics off: %+v vs result %d/%d/%d",
			s, res.Total, res.Conv, res.MOT)
	}
	if s.ImplyCalls != 0 || s.Step0NS != 0 || s.EventFrames != 0 {
		t.Errorf("metrics-off run published pipeline internals: %+v", s)
	}
	if s.MOTFaults == 0 {
		t.Error("MOTFaults not counted with metrics off")
	}
}

// TestRunContextCancel asserts both run modes stop promptly and return
// the context error once the context is canceled mid-run.
func TestRunContextCancel(t *testing.T) {
	c, T, faults := statsSetup(t)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		// Disable the prescreen so every fault runs the pipeline and the
		// cancellation point is exercised by the fault loop itself.
		cfg.Prescreen = false
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		fired := 0
		progress := func(done, total int) {
			fired++
			if done >= 3 {
				cancel()
			}
		}
		var res *Result
		if workers == 1 {
			res, err = s.RunContext(ctx, faults, progress)
		} else {
			res, err = s.RunParallelContext(ctx, faults, workers, progress)
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
		if fired >= len(faults) {
			t.Errorf("workers=%d: run completed all %d faults despite cancellation", workers, fired)
		}
	}
}

// TestRunContextDone asserts an already-done context aborts before any
// prescreen batch or fault is simulated.
func TestRunContextDone(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	cfg.Tracer = xtrace.New(xtrace.Options{})
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, faults, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	spans, _ := cfg.Tracer.Snapshot()
	for _, sp := range spans {
		if sp.Name == "batch" {
			t.Fatalf("a prescreen batch ran under a done context: %+v", sp)
		}
	}
}

// TestUnsampledPublishAllocs asserts that folding an unsampled pipeline
// fault into the run histograms and the worker's live delta allocates
// nothing.
func TestUnsampledPublishAllocs(t *testing.T) {
	c, T, faults := statsSetup(t)
	cfg := DefaultConfig()
	cfg.Live = &LiveStats{}
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.beginRun(&Result{})
	var p livePublisher
	p.init(cfg)
	o, err := s.SimulateFault(faults[len(faults)/2])
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.observeHist(&o)
		p.observe(&o, &s.rec)
	}); n != 0 {
		t.Errorf("publishing an unsampled fault allocates %.1f times", n)
	}
}
