package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := BaselineConfig().Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
	bad := []Config{
		{NStates: 0, BackwardDepth: 1},
		{NStates: 4, BackwardDepth: 0},
		{NStates: 4, BackwardDepth: 1, Schedule: Fixpoint, FixpointRounds: 0},
		{NStates: 4, BackwardDepth: 1, MaxPairs: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if TwoPass.String() != "two-pass" || Fixpoint.String() != "fixpoint" {
		t.Error("schedule strings wrong")
	}
	if Undetected.String() != "undetected" || !DetectedMOT.Detected() || Undetected.Detected() {
		t.Error("outcome semantics wrong")
	}
	if Schedule(9).String() == "" || Outcome(9).String() == "" {
		t.Error("fallback strings empty")
	}
}

// introSetup builds the introduction example: circuit, its target branch
// fault, an all-zero test sequence, and the simulator.
func introSetup(t *testing.T, cfg Config, seqLen int) (*Simulator, fault.Fault) {
	t.Helper()
	c := circuits.Intro()
	node, gate := circuits.IntroFault(c)
	f := fault.Fault{Node: node, Gate: gate, Pin: 0, Stuck: logic.One}
	T := make(seqsim.Sequence, seqLen)
	for u := range T {
		T[u] = seqsim.Pattern{logic.Zero}
	}
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestIntroDetectedMOTNotConventional(t *testing.T) {
	s, f := introSetup(t, DefaultConfig(), 3)
	o, err := s.SimulateFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if o.Outcome != DetectedMOT {
		t.Fatalf("intro fault outcome = %v, want DetectedMOT", o.Outcome)
	}
}

func TestIntroDetectedByBaselineToo(t *testing.T) {
	s, f := introSetup(t, BaselineConfig(), 3)
	o, err := s.SimulateFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if o.Outcome != DetectedMOT {
		t.Fatalf("baseline outcome = %v, want DetectedMOT (pure expansion suffices here)", o.Outcome)
	}
	if o.Counters.Det != 0 || o.Counters.Conf != 0 {
		t.Error("baseline must not report implication detections/conflicts")
	}
}

// TestBackwardBeatsBaselineUnderTightBudget reproduces the paper's core
// claim in miniature: with NStates = 1 (no sequence duplication allowed),
// the proposed procedure still detects the intro fault through phase 1
// (a detection on one next-state value forces the other), while the
// baseline cannot expand at all.
func TestBackwardBeatsBaselineUnderTightBudget(t *testing.T) {
	cfgP := DefaultConfig()
	cfgP.NStates = 1
	s, f := introSetup(t, cfgP, 3)
	o, err := s.SimulateFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if o.Outcome != DetectedMOT {
		t.Fatalf("proposed with NStates=1: %v, want DetectedMOT", o.Outcome)
	}
	if o.Expansions != 0 {
		t.Errorf("proposed should need no duplicating expansions, got %d", o.Expansions)
	}
	if o.Counters.Det == 0 {
		t.Error("detection counter should be incremented")
	}

	cfgB := BaselineConfig()
	cfgB.NStates = 1
	sb, fb := introSetup(t, cfgB, 3)
	ob, err := sb.SimulateFault(fb)
	if err != nil {
		t.Fatal(err)
	}
	if ob.Outcome != Undetected {
		t.Fatalf("baseline with NStates=1: %v, want Undetected", ob.Outcome)
	}
}

// TestFig4ConflictDrivesPhase1 checks that the Figure 4 conflict is
// exploited: the pair's 1-side conflicts, so phase 1 forces the 0 value
// without duplicating sequences.
func TestFig4ConflictDrivesPhase1(t *testing.T) {
	c := circuits.Fig4()
	T := seqsim.Sequence{{logic.Zero}, {logic.Zero}}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Use a fault that keeps the circuit undetected conventionally but
	// passes condition C; the interesting part is the collected pair.
	l9, _ := c.NodeByName("L9")
	f := fault.Fault{Node: l9, Gate: netlist.NoGate, Stuck: logic.One}
	bad, _, detected, err := s.sim.RunFault(T, s.good, f, true)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Skip("fault conventionally detected; pair analysis not reachable")
	}
	nsvArr, noutArr := s.profile(bad)
	_ = nsvArr
	pairs := s.collectPairs(&f, bad, noutArr)
	// Find the pair for the single state variable at u=1.
	found := false
	for _, p := range pairs {
		if p.u == 1 && p.i == 0 {
			found = true
			if !p.conf[1] {
				t.Error("asserting next-state 1 should conflict (Figure 4)")
			}
			if p.conf[0] || p.detect[0] {
				t.Error("0 side should be clean")
			}
		}
	}
	if !found {
		t.Log("no (1,0) pair collected; pairs:", len(pairs))
	}
}

// enumerateMOTDetectable brute-force checks restricted-MOT detectability:
// for every binary initial state of the faulty machine, the (fully
// binary) faulty output sequence must conflict with the fault-free
// response at some position where the fault-free value is specified.
func enumerateMOTDetectable(c *netlist.Circuit, T seqsim.Sequence, good *seqsim.Trace, f fault.Fault) bool {
	nFF := c.NumFFs()
	vals := make([]logic.Val, c.NumNodes())
	for m := 0; m < 1<<nFF; m++ {
		st := make([]logic.Val, nFF)
		for i := range st {
			st[i] = logic.FromBool(m&(1<<i) != 0)
			// A stem fault on the Q node pins the effective value.
			st[i] = f.Observed(c.FFs[i].Q, st[i])
		}
		conflict := false
		for u := range T {
			seqsim.EvalFrame(c, T[u], st, &f, vals)
			for j, id := range c.Outputs {
				g := good.Outputs[u][j]
				if g.IsBinary() && vals[id].IsBinary() && vals[id] != g {
					conflict = true
				}
			}
			next := make([]logic.Val, nFF)
			for i, ff := range c.FFs {
				next[i] = f.Observed(ff.Q, vals[ff.D])
			}
			st = next
		}
		if !conflict {
			return false
		}
	}
	return true
}

// randomCircuit builds a small random sequential circuit for property
// tests (at most 6 FFs so initial states can be enumerated).
func randomCircuit(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("rand")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not {
			n = 2 + rng.Intn(2)
		}
		ins := make([]netlist.NodeID, n)
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		var name string
		if i < nFF {
			name = fmt.Sprintf("d%d", i)
		} else {
			name = fmt.Sprintf("g%d", i)
		}
		pool = append(pool, b.Gate(op, name, ins...))
	}
	for i := 0; i < 2 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

func randomSequence(rng *rand.Rand, width, length int) seqsim.Sequence {
	T := make(seqsim.Sequence, length)
	for u := range T {
		p := make(seqsim.Pattern, width)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	return T
}

// TestMOTSoundnessByEnumeration is the central soundness property test:
// every fault the MOT procedure declares detected must be detectable for
// every binary initial state of the faulty machine (brute-force check).
// Both the proposed procedure and the baseline are checked, plus the
// fixpoint and deep-backward extensions.
func TestMOTSoundnessByEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	configs := map[string]Config{
		"proposed": DefaultConfig(),
		"baseline": BaselineConfig(),
	}
	fx := DefaultConfig()
	fx.Schedule = Fixpoint
	configs["fixpoint"] = fx
	deep := DefaultConfig()
	deep.BackwardDepth = 3
	configs["deep"] = deep

	trials := 0
	for trials < 25 {
		nFF := 3 + rng.Intn(3) // 3..5
		nGates := nFF + 6 + rng.Intn(12)
		c, err := randomCircuit(rng, 2, nFF, nGates)
		if err != nil {
			continue
		}
		trials++
		T := randomSequence(rng, c.NumInputs(), 5)
		faults := fault.CollapsedList(c)
		for name, cfg := range configs {
			s, err := NewSimulator(c, T, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				o, err := s.SimulateFault(f)
				if err != nil {
					t.Fatal(err)
				}
				if o.Outcome == DetectedMOT {
					if !enumerateMOTDetectable(c, T, s.Good(), f) {
						t.Fatalf("config %s: fault %s declared MOT-detected but some initial state never conflicts",
							name, f.Name(c))
					}
				}
				if o.Outcome == DetectedConventional {
					// Conventional detections are sound by construction of
					// three-valued simulation; spot-check via enumeration.
					if !enumerateMOTDetectable(c, T, s.Good(), f) {
						t.Fatalf("config %s: fault %s conventional detection unsound", name, f.Name(c))
					}
				}
			}
		}
	}
}

// TestProposedCoversBaseline checks the paper's observation that every
// fault detected by the [4] procedure is also detected by the proposed
// procedure, on random small circuits.
func TestProposedCoversBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 0
	for trials < 20 {
		nFF := 3 + rng.Intn(3)
		c, err := randomCircuit(rng, 2, nFF, nFF+8+rng.Intn(10))
		if err != nil {
			continue
		}
		trials++
		T := randomSequence(rng, c.NumInputs(), 6)
		faults := fault.CollapsedList(c)
		sp, err := NewSimulator(c, T, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSimulator(c, T, BaselineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			op, err := sp.SimulateFault(f)
			if err != nil {
				t.Fatal(err)
			}
			ob, err := sb.SimulateFault(f)
			if err != nil {
				t.Fatal(err)
			}
			if ob.Outcome.Detected() && !op.Outcome.Detected() {
				t.Fatalf("fault %s detected by baseline but not by proposed", f.Name(c))
			}
		}
	}
}

func TestRunAggregates(t *testing.T) {
	c := circuits.Intro()
	T := seqsim.Sequence{{logic.Zero}, {logic.Zero}, {logic.One}}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	calls := 0
	res, err := s.Run(faults, func(done, total int) {
		calls++
		if total != len(faults) {
			t.Error("wrong total in progress callback")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(faults) {
		t.Errorf("progress called %d times, want %d", calls, len(faults))
	}
	if res.Total != len(faults) || res.Detected() != res.Conv+res.MOT {
		t.Error("result totals inconsistent")
	}
	if res.MOT < 1 {
		t.Errorf("expected at least one MOT-detected fault, got %d", res.MOT)
	}
	det, conf, extra := res.AvgCounters()
	if det < 0 || conf < 0 || extra <= 0 {
		t.Errorf("counter averages implausible: %v %v %v", det, conf, extra)
	}
}

func TestAvgCountersNoMOT(t *testing.T) {
	r := &Result{}
	if d, c, e := r.AvgCounters(); d != 0 || c != 0 || e != 0 {
		t.Error("averages over zero MOT faults should be zero")
	}
}

func TestConditionCPrunes(t *testing.T) {
	// A circuit whose single FF initializes immediately: q' = AND(a, 0).
	c, err := bench.ParseString("sync", `
INPUT(a)
OUTPUT(o)
q = DFF(d)
z = CONST0()
d = AND(a, z)
o = OR(q, a)
`)
	if err != nil {
		t.Fatal(err)
	}
	T := seqsim.Sequence{{logic.One}, {logic.One}}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// o stuck-at-1 is undetected (a=1 keeps o=1 anyway) and has no
	// unspecified faulty outputs, so condition C must prune it.
	o, _ := c.NodeByName("o")
	f := fault.Fault{Node: o, Gate: netlist.NoGate, Stuck: logic.One}
	res, err := s.SimulateFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Undetected || !res.FailedConditionC {
		t.Fatalf("outcome=%v failedC=%v, want undetected and pruned", res.Outcome, res.FailedConditionC)
	}
}

func TestMaxPairsCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPairs = 1
	s, f := introSetup(t, cfg, 4)
	o, err := s.SimulateFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if o.Pairs > 1 {
		t.Errorf("pairs collected = %d, want <= 1", o.Pairs)
	}
}

func TestS27RunOrdering(t *testing.T) {
	c := circuits.S27()
	rng := rand.New(rand.NewSource(27))
	T := randomSequence(rng, 4, 20)
	faults := fault.CollapsedList(c)

	conv := 0
	sp, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resP, err := sp.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSimulator(c, T, BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sb.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	conv = int(resP.Conv)
	if int(resB.Conv) != conv {
		t.Errorf("conventional counts differ: %d vs %d", resP.Conv, resB.Conv)
	}
	if resP.Detected() < resB.Detected() {
		t.Errorf("proposed detected %d < baseline %d", resP.Detected(), resB.Detected())
	}
	// MOT soundness on the real circuit.
	for i, o := range resP.Outcomes {
		if o.Outcome == DetectedMOT {
			if !enumerateMOTDetectable(c, T, sp.Good(), faults[i]) {
				t.Fatalf("s27 fault %s MOT detection unsound", faults[i].Name(c))
			}
		}
	}
}
