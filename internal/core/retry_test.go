package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// checkSkippedRetries runs the fault list on the given workers with
// retrySkipHook resimulating every skipped portfolio retry, which must
// not detect: the skip stands for a retry that fails. The retry runs on
// the vector pass the pipeline would have run (checked against the
// serial reference by the BPResim cross-checks), with the fault's
// record restored after it. It returns the number of skips, which must
// equal the run's ResimRetriesSkipped.
func checkSkippedRetries(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config, workers int) int64 {
	t.Helper()
	var skipped, wrong atomic.Int64
	retrySkipHook = func(s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion, nout []int) {
		skipped.Add(1)
		rec := s.rec
		detected := s.resimulate(f, bad, x, nout)
		s.rec = rec
		if detected && wrong.Add(1) <= 5 {
			t.Errorf("fault %s: skipped retry of %d steps detects", f.Name(c), len(x.steps))
		}
	}
	defer func() { retrySkipHook = nil }()
	cfg.Metrics = true
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunParallel(faults, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stages.ResimRetriesSkipped; got != skipped.Load() {
		t.Errorf("ResimRetriesSkipped = %d, hook saw %d skips", got, skipped.Load())
	}
	return skipped.Load()
}

// TestRetryDominanceParallel resimulates every skipped portfolio retry
// of the collapsed sg344, sg641 and sg5378 lists (64 random patterns,
// seed 4) under the default configuration, the fixpoint schedule, two
// time units of backward implication and a small pair cap, at 1 and 4
// workers. Every configuration must skip some retry, or the check
// proves nothing. sg5378 runs the default configuration only: it is
// the circuit where a retry whose steps share only their time units
// with the proposed ones detects.
func TestRetryDominanceParallel(t *testing.T) {
	variants := []struct {
		name  string
		tweak func(*Config)
	}{
		{"default", func(*Config) {}},
		{"fixpoint", func(cfg *Config) { cfg.Schedule = Fixpoint }},
		{"deep2", func(cfg *Config) { cfg.BackwardDepth = 2 }},
		{"maxpairs20", func(cfg *Config) { cfg.MaxPairs = 20 }},
	}
	for _, name := range []string{"sg344", "sg641", "sg5378"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		T := tgen.Random(c.NumInputs(), 64, 4)
		faults := fault.CollapsedList(c)
		for _, v := range variants {
			if name == "sg5378" && v.name != "default" {
				continue
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, v.name, workers), func(t *testing.T) {
					cfg := DefaultConfig()
					v.tweak(&cfg)
					if n := checkSkippedRetries(t, c, T, faults, cfg, workers); n == 0 {
						t.Fatal("no retry skipped")
					}
				})
			}
		}
	}
}

// FuzzRetryDominance checks the portfolio retry skip on generated
// circuits, in the shape of FuzzOracleSoundness: each input picks a
// circuit (circuits.GenParams: 1-3 inputs and outputs, at most 12
// flip-flops, some of them free, 8-72 gates), a random sequence of at
// most 16 patterns and an N_STATES budget of 2 to 64, and runs the
// collapsed fault list on 2 workers. Every skipped retry is
// resimulated through the serial reference, which must not detect.
func FuzzRetryDominance(f *testing.F) {
	for _, in := range []struct {
		ffs, gates, length, nstates uint8
		seed                        int64
	}{{6, 20, 8, 2, 3}, {9, 40, 12, 3, 5}, {11, 56, 15, 5, 8}, {12, 64, 16, 4, 11}} {
		f.Add(uint8(2), uint8(2), in.ffs, uint8(1), in.gates, in.length, in.nstates, in.seed)
	}
	f.Fuzz(func(t *testing.T, inputs, outputs, ffs, free, gates, length, nstates uint8, seed int64) {
		p := circuits.GenParams{
			Name:    "fuzz",
			Inputs:  1 + int(inputs%3),
			Outputs: 1 + int(outputs%3),
			FFs:     int(ffs % 13),
			Gates:   8 + int(gates%65),
			Seed:    seed,
		}
		p.FreeFFs = int(free) % (p.FFs + 1)
		p.Gates = max(p.Gates, p.FFs-p.FreeFFs+p.Outputs)
		c, err := circuits.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		T := tgen.Random(c.NumInputs(), 1+int(length%16), seed)
		cfg := DefaultConfig()
		cfg.NStates = 2 << (nstates % 6)
		n := checkSkippedRetries(t, c, T, fault.CollapsedList(c), cfg, 2)
		t.Logf("%+v, N_STATES %d: %d retries skipped", p, cfg.NStates, n)
	})
}
