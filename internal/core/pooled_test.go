package core

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckPooled checks the pooled pair collection against the
// allocate-per-pair reference over a whole fault list: every fault
// that reaches collection (not detected conventionally, passing
// condition (C)) must collect exactly collectPairsRef's pairs, on
// whichever collector cfg selects (lane passes, or the pooled serial
// frames under the Fixpoint schedule and BackwardDepth > 1), with one
// simulator's pools serving the whole list. The list then runs
// serially and through RunParallel (per-worker pools), and every
// FaultOutcome must be byte-identical between the two (FaultOutcome
// has no reference-typed fields, so != is an exact field-by-field
// comparison).
func crossCheckPooled(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
	t.Helper()
	sim, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	collected := 0
	for _, f := range faults {
		bad, _, detected, err := sim.runBad(f)
		if err != nil {
			t.Fatal(err)
		}
		if detected {
			continue
		}
		nsv, nout := sim.profile(bad)
		if !conditionC(nsv, nout) {
			continue
		}
		samePairs(t, f.Name(c), sim.collectPairs(&f, bad, nout), sim.collectPairsRef(&f, bad, nout))
		collected++
	}
	t.Logf("%d of %d faults reached collection", collected, len(faults))
	res, err := sim.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range par.Outcomes {
		if par.Outcomes[k] != res.Outcomes[k] {
			t.Fatalf("fault %s differs between parallel and serial:\n  parallel: %+v\n  serial:   %+v",
				faults[k].Name(c), par.Outcomes[k], res.Outcomes[k])
		}
	}
}

func TestPooledCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckPooled(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestPooledCrossCheckSynthetic(t *testing.T) {
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
			crossCheckPooled(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestPooledCrossCheckLongList covers a fault list well beyond 64 faults
// (the uncollapsed sg208 list), so one simulator's pools serve hundreds of
// consecutive faults.
func TestPooledCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	if len(faults) <= 64 {
		t.Fatalf("fault list too short: %d", len(faults))
	}
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckPooled(t, c, T, faults, DefaultConfig())
}

// TestPooledCrossCheckVariants sweeps the configuration axes that steer
// the pooled code down different paths: the [4] baseline (pooled trivial
// pairs only), deep backward implications (the level-indexed frame pool),
// the fixpoint schedule (serial frames), a tight pair cap,
// identification-only mode, a small sequence budget and the prescreen
// off.
func TestPooledCrossCheckVariants(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	faults := fault.CollapsedList(c)
	variants := map[string]func(*Config){
		"baseline":     func(cfg *Config) { cfg.UseBackwardImplications = false },
		"deep2":        func(cfg *Config) { cfg.BackwardDepth = 2 },
		"deep4":        func(cfg *Config) { cfg.BackwardDepth = 4 },
		"fixpoint":     func(cfg *Config) { cfg.Schedule = Fixpoint },
		"maxpairs4":    func(cfg *Config) { cfg.MaxPairs = 4 },
		"identifyonly": func(cfg *Config) { cfg.IdentificationOnly = true },
		"nstates8":     func(cfg *Config) { cfg.NStates = 8 },
		"no-prescreen": func(cfg *Config) { cfg.Prescreen = false },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			tweak(&cfg)
			crossCheckPooled(t, c, T, faults, cfg)
		})
	}
}

// TestParallelPooledIsolation runs a larger parallel job twice on the same
// simulator and asserts run-to-run determinism — with shared pools a data
// race would corrupt outcomes. Run under -race this is the pooled-path
// race test required by the verify recipe.
func TestParallelPooledIsolation(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	faults := fault.CollapsedList(c)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.RunParallel(faults, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunParallel(faults, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range first.Outcomes {
		if first.Outcomes[k] != second.Outcomes[k] {
			t.Fatalf("fault %s: run-to-run mismatch:\n  first:  %+v\n  second: %+v",
				faults[k].Name(c), first.Outcomes[k], second.Outcomes[k])
		}
	}
}
