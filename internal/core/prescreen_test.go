package core

import (
	"context"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheck runs the fault list with the prescreen on and off (serially
// and in parallel) and asserts the outcomes are identical element by
// element: order, classification, detection site, and every counter.
func crossCheck(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault) {
	t.Helper()
	on := DefaultConfig()
	off := DefaultConfig()
	off.Prescreen = false

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
	resPar, err := simOn.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*Result{"parallel": resPar, "serial": resOn} {
		if len(res.Outcomes) != len(resOff.Outcomes) {
			t.Fatalf("%s: %d outcomes with prescreen, %d without", name, len(res.Outcomes), len(resOff.Outcomes))
		}
		for k := range res.Outcomes {
			if res.Outcomes[k] != resOff.Outcomes[k] {
				t.Fatalf("%s: fault %s differs with prescreen:\n  on:  %+v\n  off: %+v",
					name, faults[k].Name(c), res.Outcomes[k], resOff.Outcomes[k])
			}
		}
		// The tallies differ only in how many faults the pipeline ran.
		on, off := res.Tally, resOff.Tally
		on.MOTFaults, off.MOTFaults = 0, 0
		if on != off {
			t.Fatalf("%s: aggregates differ with prescreen:\n  on:  %+v\n  off: %+v", name, on, off)
		}
	}

	// Stage counters: the prescreen must have run and dropped exactly the
	// conventionally-detected faults; the off run records no passes.
	if want := int64(bitsim.Batches(len(faults))); resOn.Stages.PrescreenPasses != want {
		t.Errorf("prescreen passes = %d, want %d", resOn.Stages.PrescreenPasses, want)
	}
	if resOn.Stages.PrescreenDropped != resOn.Conv {
		t.Errorf("prescreen dropped %d faults, conventional detections = %d",
			resOn.Stages.PrescreenDropped, resOn.Conv)
	}
	// The lanes prune exactly the (C) failures the serial oracle finds,
	// so only the (C) passers enter the per-fault pipeline.
	for name, res := range map[string]*Result{"parallel": resPar, "serial": resOn} {
		st := res.Stages
		if st.PrescreenPrunedC != res.PrunedConditionC {
			t.Errorf("%s: prescreen pruned %d faults by (C), run pruned %d",
				name, st.PrescreenPrunedC, res.PrunedConditionC)
		}
		if want := int64(res.Total) - st.PrescreenDropped - st.PrescreenPrunedC; res.MOTFaults != want {
			t.Errorf("%s: MOTFaults = %d, want total - dropped - prunedC = %d", name, res.MOTFaults, want)
		}
	}
	if resOff.Stages.PrescreenPasses != 0 || resOff.Stages.PrescreenDropped != 0 || resOff.Stages.PrescreenPrunedC != 0 {
		t.Errorf("prescreen-off run recorded prescreen work: %+v", resOff.Stages)
	}
	if resOff.MOTFaults != int64(resOff.Total) {
		t.Errorf("prescreen-off MOTFaults = %d, want every fault (%d)", resOff.MOTFaults, resOff.Total)
	}
}

func TestPrescreenCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheck(t, c, T, fault.CollapsedList(c))
}

// TestPrescreenCrossCheckSuite runs the suite circuits against the
// prescreen-off serial oracle. sg641 and sg1423 are large enough that
// most gates stay off the prescreen's event schedule in most frames.
func TestPrescreenCrossCheckSuite(t *testing.T) {
	for _, name := range []string{"sg208", "sg298", "sg641", "sg1423"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		T := tgen.Random(c.NumInputs(), 32, e.SeqSeed)
		crossCheck(t, c, T, fault.CollapsedList(c))
	}
}

// TestPrescreenLaneBoundary exercises a fault list longer than one
// 64-lane word, so the prescreen needs multiple batches and faults sit on
// every lane position including the batch boundaries.
func TestPrescreenLaneBoundary(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c) // uncollapsed: well beyond 64 faults
	if len(faults) <= bitsim.Lanes {
		t.Fatalf("fault list too short for a lane-boundary test: %d", len(faults))
	}
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheck(t, c, T, faults)
}

// TestRunAggregatesPairsSequences checks that Run sums the per-fault
// Pairs and Sequences counters like Expansions.
func TestRunAggregatesPairsSequences(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(fault.CollapsedList(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	var pairs, seqs, exps int64
	for _, o := range res.Outcomes {
		pairs += int64(o.Pairs)
		seqs += int64(o.Sequences)
		exps += int64(o.Expansions)
	}
	if res.Pairs != pairs || res.Sequences != seqs || res.Expansions != exps {
		t.Fatalf("aggregates: got pairs=%d seqs=%d exps=%d, want %d %d %d",
			res.Pairs, res.Sequences, res.Expansions, pairs, seqs, exps)
	}
}

// brokenSequence returns a copy of T whose final pattern has the wrong
// width, so conventional simulation of any fault reaching it errors.
func brokenSequence(T seqsim.Sequence) seqsim.Sequence {
	bad := append(seqsim.Sequence{}, T...)
	bad[len(bad)-1] = bad[len(bad)-1][:1]
	return bad
}

// TestRunParallelErrorDrains checks that a worker error is propagated and
// the pool drains instead of simulating the rest of the fault list.
func TestRunParallelErrorDrains(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 8, e.SeqSeed)
	faults := fault.List(c)
	for _, prescreen := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Prescreen = prescreen
		s, err := NewSimulator(c, T, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Break the sequence after construction: the fault-free trace is
		// already computed, so the error surfaces inside the workers (or
		// the prescreen), not in NewSimulator.
		s.T = brokenSequence(s.T)
		if _, err := s.RunParallel(faults, 4, nil); err == nil {
			t.Errorf("prescreen=%v: broken sequence not reported", prescreen)
		}
		if _, err := s.Run(faults, nil); err == nil {
			t.Errorf("prescreen=%v: serial run did not report broken sequence", prescreen)
		}
	}
}

// checkLaneConditionC compares the prescreen lanes' condition (C)
// verdict for every fault with the serial oracle — step 0 followed by
// the N_sv/N_out profile and conditionC — and returns how many faults
// failed and passed (C).
func checkLaneConditionC(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault) (fail, pass int) {
	t.Helper()
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pre, failsC, _, err := bitsim.RunConditionC(context.Background(), c, T, nil, faults, 2, bitsim.Trace{})
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range faults {
		bad, _, detected, err := s.runBad(f)
		if err != nil {
			t.Fatal(err)
		}
		if pre[k].Detected != detected {
			t.Fatalf("%s: lane detected=%v, serial %v", f.Name(c), pre[k].Detected, detected)
		}
		want := false
		if !detected {
			want = !conditionC(s.profile(bad))
			if want {
				fail++
			} else {
				pass++
			}
		}
		if failsC[k] != want {
			t.Errorf("%s (list index %d): lane failsC=%v, serial profile says %v",
				f.Name(c), k, failsC[k], want)
		}
	}
	return fail, pass
}

// TestPrescreenLaneConditionC checks the lane (C) verdict fault by
// fault on the uncollapsed lists, so faults sit on every lane-word
// boundary of the 255-fault batches.
func TestPrescreenLaneConditionC(t *testing.T) {
	for _, name := range []string{"s27", "sg208", "sg298", "sg641"} {
		c, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		T := tgen.Random(c.NumInputs(), 32, 7)
		fail, pass := checkLaneConditionC(t, c, T, fault.List(c))
		t.Logf("%s: %d faults, %d fail (C), %d pass", name, len(fault.List(c)), fail, pass)
		if name != "s27" && (fail == 0 || pass == 0) {
			t.Errorf("%s: (C) verdicts one-sided (%d fail, %d pass); the check is vacuous", name, fail, pass)
		}
	}
}

// TestPrescreenLaneConditionCStateSpecified uses a 1-FF circuit whose
// Q stem faults specify the whole state, so those lanes never see an X
// state and the lane X scan cannot stop at frame 0. With a binary
// power-up value and an X on an input mid-sequence, the other lanes'
// first X state also arrives late, after some outputs were already
// unspecified.
func TestPrescreenLaneConditionCStateSpecified(t *testing.T) {
	for _, init := range []logic.Val{logic.X, logic.One, logic.Zero} {
		b := netlist.NewBuilder("ff1")
		a := b.Input("a")
		e := b.Input("e")
		q := b.FlipFlop("q", b.Signal("d"))
		b.Gate(logic.Xor, "d", q, a)
		b.Gate(logic.And, "y", q, e)
		b.Gate(logic.Nor, "z", a, e)
		b.Output("y")
		b.Output("z")
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		c.FFs[0].Init = init
		x, o, z := logic.X, logic.One, logic.Zero
		T := seqsim.Sequence{{o, z}, {z, x}, {o, o}, {x, o}, {z, o}, {o, x}, {z, z}, {o, o}}
		fail, pass := checkLaneConditionC(t, c, T, fault.List(c))
		if fail == 0 {
			t.Errorf("init %v: no fault fails (C); the Q stem lanes were not exercised", init)
		}
		t.Logf("init %v: %d fail (C), %d pass", init, fail, pass)
	}
}
