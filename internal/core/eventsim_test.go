package core

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckEventSim runs the fault list on the production simulator,
// whose faulty frames are event-driven sparse overlays, serially and
// through RunParallel (per-worker EventEval scratch and schedule
// binding), and asserts every FaultOutcome is byte-identical to a
// serial run whose seqsim simulator is the full-pass reference
// (seqsim.NewFullPass: every gate of every faulty frame). FaultOutcome
// has no reference-typed fields, so != is an exact field-by-field
// comparison.
func crossCheckEventSim(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
	t.Helper()
	simFull, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simFull.sim = seqsim.NewFullPass(c)
	simEvent, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := simFull.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := resFull.Stages.Sim; cfg.Metrics && st.EventFrames != 0 {
		t.Fatalf("full-pass reference ran event frames: %+v", st)
	}
	resEvent, err := simEvent.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := simEvent.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*Result{"serial": resEvent, "parallel": resPar} {
		if len(res.Outcomes) != len(resFull.Outcomes) {
			t.Fatalf("%s: %d event-driven outcomes, %d full-pass", name, len(res.Outcomes), len(resFull.Outcomes))
		}
		for k := range res.Outcomes {
			if res.Outcomes[k] != resFull.Outcomes[k] {
				t.Fatalf("%s: fault %s differs from full-pass:\n  event-driven: %+v\n  full-pass:    %+v",
					name, faults[k].Name(c), res.Outcomes[k], resFull.Outcomes[k])
			}
		}
		if res.Conv != resFull.Conv || res.MOT != resFull.MOT || res.Sum != resFull.Sum ||
			res.Expansions != resFull.Expansions || res.Pairs != resFull.Pairs ||
			res.Sequences != resFull.Sequences || res.Identified != resFull.Identified ||
			res.PrunedConditionC != resFull.PrunedConditionC {
			t.Fatalf("%s: aggregates differ from full-pass:\n  event-driven: %+v\n  full-pass:    %+v",
				name, res, resFull)
		}
	}
}

func TestEventSimCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckEventSim(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestEventSimCrossCheckSynthetic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *netlist.Circuit
	}{
		{"fig4", circuits.Fig4},
		{"intro", circuits.Intro},
		{"table1", circuits.Table1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			T := tgen.Random(c.NumInputs(), 16, 11)
			crossCheckEventSim(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestEventSimCrossCheckLongList covers the uncollapsed sg208 list: one
// simulator's event scratch, position schedule and epoch stamps serve
// hundreds of consecutive faults, reusing the overlay across thousands
// of frames.
func TestEventSimCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckEventSim(t, c, T, faults, DefaultConfig())
}

// TestEventSimCrossCheckVariants sweeps the configuration axes that
// change which frames the evaluator sees: the [4] baseline, deep
// backward implications, the fixpoint schedule, tight pair and sequence
// budgets, and the prescreen off (conventionally detected faults run
// the per-fault pipeline too).
func TestEventSimCrossCheckVariants(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	faults := fault.CollapsedList(c)
	variants := map[string]func(*Config){
		"baseline":     func(cfg *Config) { cfg.UseBackwardImplications = false },
		"deep2":        func(cfg *Config) { cfg.BackwardDepth = 2 },
		"deep4":        func(cfg *Config) { cfg.BackwardDepth = 4 },
		"fixpoint":     func(cfg *Config) { cfg.Schedule = Fixpoint },
		"maxpairs4":    func(cfg *Config) { cfg.MaxPairs = 4 },
		"nstates2":     func(cfg *Config) { cfg.NStates = 2 },
		"no-prescreen": func(cfg *Config) { cfg.Prescreen = false },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			tweak(&cfg)
			crossCheckEventSim(t, c, T, faults, cfg)
		})
	}
}

// TestEventSimLiveCounters asserts the live snapshot carries the
// event-driven evaluator's counters and that they agree between worker
// counts.
func TestEventSimLiveCounters(t *testing.T) {
	c, T, faults := statsSetup(t)
	run := func(workers int) *LiveSnapshot {
		live := &LiveStats{}
		cfg := DefaultConfig()
		cfg.Live = live
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			_, err = s.Run(faults, nil)
		} else {
			_, err = s.RunParallel(faults, workers, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		snap := live.Snapshot()
		return &snap
	}
	on := run(1)
	if on.EventFrames == 0 || on.EventGateEvals == 0 || on.Events == 0 {
		t.Errorf("event-driven live counters empty: %+v", on)
	}
	par := run(8)
	if par.EventFrames != on.EventFrames || par.EventGateEvals != on.EventGateEvals || par.Events != on.Events {
		t.Errorf("live event counters differ between 1 and 8 workers:\n  1: %+v\n  8: %+v", on, par)
	}
}
