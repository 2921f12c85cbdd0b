package core

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// crossCheckBPResim runs the fault list with the bit-parallel
// resimulation on and off and asserts every FaultOutcome is
// byte-identical (FaultOutcome has no reference-typed fields, so != is
// an exact field-by-field comparison). The bit-parallel path is
// exercised serially and through RunParallel (per-worker lane
// evaluators and lane columns).
func crossCheckBPResim(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) {
	t.Helper()
	serial := cfg
	serial.BitParallelResim = false
	vector := cfg
	vector.BitParallelResim = true

	simSerial, err := NewSimulator(c, T, serial)
	if err != nil {
		t.Fatal(err)
	}
	simVector, err := NewSimulator(c, T, vector)
	if err != nil {
		t.Fatal(err)
	}
	resSerial, err := simSerial.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	resVector, err := simVector.Run(faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := simVector.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*Result{"serial": resVector, "parallel": resPar} {
		if len(res.Outcomes) != len(resSerial.Outcomes) {
			t.Fatalf("%s: %d bit-parallel outcomes, %d serial", name, len(res.Outcomes), len(resSerial.Outcomes))
		}
		for k := range res.Outcomes {
			if res.Outcomes[k] != resSerial.Outcomes[k] {
				t.Fatalf("%s: fault %s differs from serial resim:\n  bit-parallel: %+v\n  serial:       %+v",
					name, faults[k].Name(c), res.Outcomes[k], resSerial.Outcomes[k])
			}
		}
		if res.Conv != resSerial.Conv || res.MOT != resSerial.MOT || res.Sum != resSerial.Sum ||
			res.Expansions != resSerial.Expansions || res.Pairs != resSerial.Pairs ||
			res.Sequences != resSerial.Sequences || res.Identified != resSerial.Identified ||
			res.PrunedConditionC != resSerial.PrunedConditionC {
			t.Fatalf("%s: aggregates differ from serial resim:\n  bit-parallel: %+v\n  serial:       %+v",
				name, res, resSerial)
		}
	}
}

func TestBPResimCrossCheckS27(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 20, 27)
	crossCheckBPResim(t, c, T, fault.CollapsedList(c), DefaultConfig())
}

func TestBPResimCrossCheckSynthetic(t *testing.T) {
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
			crossCheckBPResim(t, c, T, fault.CollapsedList(c), DefaultConfig())
		})
	}
}

// TestBPResimCrossCheckLongList covers the uncollapsed sg208 list: one
// simulator's pooled lane evaluator, lane columns and seed sets serve
// hundreds of consecutive faults with widely varying expansion shapes.
func TestBPResimCrossCheckLongList(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg208")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	faults := fault.List(c)
	T := tgen.Random(c.NumInputs(), 24, e.SeqSeed)
	crossCheckBPResim(t, c, T, faults, DefaultConfig())
}

// TestBPResimCrossCheckSuite runs collapsed suite lists past the tiny
// circuits: schedules span several bitmap words, NStates 200 packs more
// than one 64-lane word per pass, and the [4] baseline (backward
// implications off) exercises the retained faulty-trace rows the
// vector pass reads as its overlay baseline.
func TestBPResimCrossCheckSuite(t *testing.T) {
	for _, name := range []string{"sg298", "sg641"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		faults := fault.CollapsedList(c)
		T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
		for _, nstates := range []int{64, 200} {
			for _, bi := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/nstates%d/bi=%v", name, nstates, bi), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.NStates = nstates
					cfg.UseBackwardImplications = bi
					crossCheckBPResim(t, c, T, faults, cfg)
				})
			}
		}
	}
}

// TestBPResimCrossCheckVariants sweeps the configuration axes that
// change what reaches resimulation: the [4] baseline (no implication
// pruning, more surviving sequences), deep backward implications, the
// fixpoint schedule, a tight pair cap, a small sequence budget (more
// portfolio retries), the Reference allocation mode (fresh lane
// evaluator and columns per pass), and the prescreen off (conventionally
// detected faults resimulate too).
func TestBPResimCrossCheckVariants(t *testing.T) {
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
		"reference":    func(cfg *Config) { cfg.Reference = true },
		"no-prescreen": func(cfg *Config) { cfg.Prescreen = false },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			tweak(&cfg)
			crossCheckBPResim(t, c, T, faults, cfg)
		})
	}
}

// fuzzResimBench adds a reconvergent output so evaluated gates read
// lane-divergent values next to values read through from the trace.
const fuzzResimBench = `
INPUT(a)
OUTPUT(o1)
OUTPUT(o2)
OUTPUT(o3)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = NOT(q1)
d2 = XOR(q2, a)
o1 = AND(a, q1)
o2 = AND(a, q2)
o3 = OR(q1, q2)
`

// FuzzResimCrossCheck drives hand-built divergent expansion sets
// through both resimulation paths and asserts they agree. The fuzz
// input is decoded as (time unit, state variable, value) triples under
// the expand invariants: assignments are binary, land at time units
// below L, and mark the unit they write.
func FuzzResimCrossCheck(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 9, 1, 1, 0})
	f.Add([]byte{3, 4, 0, 1, 5, 1, 0, 255, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c, err := bench.ParseString("fuzzresim", fuzzResimBench)
		if err != nil {
			t.Fatal(err)
		}
		const L = 4
		T := make(seqsim.Sequence, L)
		for u := range T {
			T[u] = seqsim.Pattern{logic.FromBool(u%2 == 0)}
		}
		s, err := NewSimulator(c, T, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, _ := c.NodeByName("a")
		fl := fault.Fault{Node: a, Gate: netlist.NoGate, Stuck: logic.One}
		bad, _, _, err := s.sim.RunFault(T, s.good, fl, true)
		if err != nil {
			t.Fatal(err)
		}
		nFF := c.NumFFs()
		n := 1 + int(data[0])%4
		data = data[1:]
		seqs := make([]*sequence, n)
		for k := range seqs {
			seqs[k] = &sequence{states: cloneStates(bad.States)}
		}
		marks := make([]bool, L+1)
		for i := 0; i+2 < len(data); i += 3 {
			u := int(data[i]) % L
			j := int(data[i+1]) % nFF
			v := logic.FromBool(data[i+2]%2 == 1)
			sq := seqs[(i/3)%n]
			sq.states[u][j] = v
			marks[u] = true
		}
		testResimulate(t, s, &fl, bad, seqs, marks)
	})
}
