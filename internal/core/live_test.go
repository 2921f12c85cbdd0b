package core

import (
	"context"
	"errors"
	"testing"
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

// TestLiveSnapshotSerialParallelCrossCheck asserts the final live
// snapshot is scheduling-invariant (serial == 8 workers) and equals the
// merged Result/Result.Stages counters, so a /metrics scrape taken
// after the run reports exactly what the batch report does.
func TestLiveSnapshotSerialParallelCrossCheck(t *testing.T) {
	resS, liveS := liveRun(t, 1, nil)
	resP, liveP := liveRun(t, 8, nil)

	ss, sp := deterministic(liveS.Snapshot()), deterministic(liveP.Snapshot())
	if ss != sp {
		t.Errorf("live snapshot differs between 1 and 8 workers:\n  serial:   %+v\n  parallel: %+v", ss, sp)
	}

	for _, res := range []*Result{resS, resP} {
		if res.Live == nil {
			t.Fatal("Result.Live not set")
		}
		s := res.Live.Snapshot()
		st := res.Stages
		checks := []struct {
			name      string
			got, want int64
		}{
			{"RunsStarted", s.RunsStarted, 1},
			{"RunsDone", s.RunsDone, 1},
			{"FaultsTotal", s.FaultsTotal, int64(res.Total)},
			{"FaultsDone", s.FaultsDone, int64(res.Total)},
			{"Conv", s.Conv, int64(res.Conv)},
			{"MOT", s.MOT, int64(res.MOT)},
			{"PrunedConditionC", s.PrunedConditionC, int64(res.PrunedConditionC)},
			{"PrescreenPasses", s.PrescreenPasses, int64(st.PrescreenPasses)},
			{"PrescreenDropped", s.PrescreenDropped, int64(st.PrescreenDropped)},
			{"PrescreenPrunedC", s.PrescreenPrunedC, int64(st.PrescreenPrunedC)},
			{"PrescreenFrames", s.PrescreenFrames, st.PrescreenFrames},
			{"PrescreenGateEvals", s.PrescreenGateEvals, st.PrescreenGateEvals},
			{"MOTFaults", s.MOTFaults, int64(st.MOTFaults)},
			{"Pairs", s.Pairs, int64(res.Pairs)},
			{"Expansions", s.Expansions, int64(res.Expansions)},
			{"Sequences", s.Sequences, int64(res.Sequences)},
			{"ImplyCalls", s.ImplyCalls, st.ImplyCalls},
			{"ImplyLaneEvals", s.ImplyLaneEvals, st.ImplyLaneEvals},
			{"ImplyNS", s.ImplyNS, int64(st.ImplyTime)},
			{"DeltaFrames", s.DeltaFrames, st.Sim.DeltaFrames},
			{"DeltaGateEvals", s.DeltaGateEvals, st.Sim.DeltaGateEvals},
			{"FullFrames", s.FullFrames, st.Sim.FullFrames},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("final snapshot %s = %d, want %d (merged result)", c.name, c.got, c.want)
			}
		}
		if s.Undetected() != int64(res.Total-res.Detected()) {
			t.Errorf("Undetected() = %d, want %d", s.Undetected(), res.Total-res.Detected())
		}
	}
	if liveS.Metrics() == nil {
		t.Error("LiveStats.Metrics() nil after a metrics-enabled run")
	}
}

// TestLiveSnapshotMonotonic scrapes the live stats after every fault of
// a serial run (cadence 1) and asserts every counter only ever grows —
// the property Prometheus counters require between scrapes.
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
			{"DeltaFrames", prev.DeltaFrames, cur.DeltaFrames},
			{"Step0NS", prev.Step0NS, cur.Step0NS},
			{"PrescreenFrames", prev.PrescreenFrames, cur.PrescreenFrames},
			{"PrescreenGateEvals", prev.PrescreenGateEvals, cur.PrescreenGateEvals},
		} {
			if p.cur < p.prev {
				t.Errorf("fault %d/%d: %s went backward: %d -> %d", done, total, p.name, p.prev, p.cur)
			}
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
	if moved < res.Total/2 {
		t.Errorf("FaultsDone moved on only %d of %d scrapes with cadence 1", moved, res.Total)
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
	if s.FaultsDone != int64(res.Total) || s.Conv != int64(res.Conv) || s.MOT != int64(res.MOT) {
		t.Errorf("snapshot counters wrong with metrics off: %+v vs result %d/%d/%d",
			s, res.Total, res.Conv, res.MOT)
	}
	if s.ImplyCalls != 0 || s.Step0NS != 0 || s.DeltaFrames != 0 {
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
// fault is simulated.
func TestRunContextDone(t *testing.T) {
	c, T, faults := statsSetup(t)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, faults, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
