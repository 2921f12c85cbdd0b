package core

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// TestRunParallelMatchesRun checks that parallel execution produces
// exactly the serial results, in order.
func TestRunParallelMatchesRun(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 32, e.SeqSeed)
	faults := fault.CollapsedList(c)

	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := s.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	parallel, err := s.RunParallel(faults, 4, func(done, total int) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(faults) {
		t.Errorf("progress called %d times, want %d", calls, len(faults))
	}
	if parallel.Tally != serial.Tally {
		t.Fatalf("parallel %+v != serial %+v", parallel.Tally, serial.Tally)
	}
	for k := range faults {
		if parallel.Outcomes[k].Outcome != serial.Outcomes[k].Outcome {
			t.Fatalf("fault %d outcome differs: %v vs %v",
				k, parallel.Outcomes[k].Outcome, serial.Outcomes[k].Outcome)
		}
	}
}

func TestRunParallelSingleWorkerFallsBack(t *testing.T) {
	c := circuits.Intro()
	T := tgen.Random(1, 3, 1)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	res, err := s.RunParallel(faults, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(faults) {
		t.Fatal("fallback run wrong")
	}
}

// TestIdentificationOnlySubset checks the low-complexity mode detects a
// subset of the full procedure's faults and never expands.
func TestIdentificationOnlySubset(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_ = rng
	e, err := circuits.SuiteEntryByName("sg344")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 48, e.SeqSeed)
	faults := fault.CollapsedList(c)

	full, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IdentificationOnly = true
	ident, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		oi, err := ident.SimulateFault(f)
		if err != nil {
			t.Fatal(err)
		}
		if oi.Expansions != 0 {
			t.Fatalf("identification-only mode expanded fault %s", f.Name(c))
		}
		if oi.Outcome != DetectedMOT {
			continue
		}
		if !oi.ByIdentification {
			t.Fatalf("identification-only detection without identification flag: %s", f.Name(c))
		}
		of, err := full.SimulateFault(f)
		if err != nil {
			t.Fatal(err)
		}
		if !of.Outcome.Detected() {
			t.Fatalf("fault %s detected by identification-only but not by the full procedure", f.Name(c))
		}
	}
}

// TestMethodConfig checks the named presets and the error naming the
// accepted methods.
func TestMethodConfig(t *testing.T) {
	lowComplexity := DefaultConfig()
	lowComplexity.IdentificationOnly = true
	for method, want := range map[string]Config{
		"proposed":      DefaultConfig(),
		"baseline":      BaselineConfig(),
		"lowcomplexity": lowComplexity,
	} {
		if got, err := MethodConfig(method); err != nil || got != want {
			t.Errorf("MethodConfig(%q) = %+v, %v; want %+v", method, got, err, want)
		}
	}
	if _, err := MethodConfig("conventional"); err == nil ||
		err.Error() != `unknown method "conventional" (want proposed, baseline, or lowcomplexity)` {
		t.Errorf("MethodConfig(conventional) error = %v", err)
	}
}
