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

// crossCheckBPResim runs the fault list serially with resimHook
// checking every expansion's vector-pass verdict against the serial
// reference (resimulateRef), then through RunParallel (per-worker lane
// evaluators and lane columns), and asserts every parallel FaultOutcome
// is byte-identical to the serial one (FaultOutcome has no
// reference-typed fields, so != is an exact field-by-field
// comparison). It returns the number of expansions checked.
func crossCheckBPResim(t *testing.T, c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, cfg Config) int {
	t.Helper()
	sim, err := NewSimulator(c, T, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked, mismatches := 0, 0
	resimHook = func(s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion, got bool) {
		checked++
		if want := s.resimulateRef(f, x); got != want {
			if mismatches++; mismatches <= 5 {
				t.Errorf("fault %s, %d steps: vector pass %v, reference %v", f.Name(c), len(x.steps), got, want)
			}
		}
	}
	res, err := sim.Run(faults, nil)
	resimHook = nil
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.RunParallel(faults, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Outcomes) != len(res.Outcomes) {
		t.Fatalf("%d parallel outcomes, %d serial", len(par.Outcomes), len(res.Outcomes))
	}
	for k := range par.Outcomes {
		if par.Outcomes[k] != res.Outcomes[k] {
			t.Fatalf("fault %s differs between parallel and serial:\n  parallel: %+v\n  serial:   %+v",
				faults[k].Name(c), par.Outcomes[k], res.Outcomes[k])
		}
	}
	if par.Tally != res.Tally {
		t.Fatalf("aggregates differ between parallel and serial:\n  parallel: %+v\n  serial:   %+v", par, res)
	}
	return checked
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
// circuits: schedules span several bitmap words, NStates 200 runs up to
// four 64-lane passes per expansion and NStates 512 eight, past the old
// 256-lane word, and the [4] baseline (backward implications off)
// exercises the retained faulty-trace rows the vector pass reads as its
// overlay baseline.
func TestBPResimCrossCheckSuite(t *testing.T) {
	for _, name := range []string{"sg298", "sg641"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		faults := fault.CollapsedList(c)
		T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
		for _, nstates := range []int{64, 200, 512} {
			for _, bi := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/nstates%d/bi=%v", name, nstates, bi), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.NStates = nstates
					cfg.UseBackwardImplications = bi
					if n := crossCheckBPResim(t, c, T, faults, cfg); n == 0 {
						t.Fatal("no expansion reached resimulation")
					}
				})
			}
		}
	}
}

// TestBPResimCrossCheckVariants sweeps the configuration axes that
// change what reaches resimulation: the [4] baseline (no implication
// pruning, more surviving sequences), deep backward implications, the
// fixpoint schedule, a tight pair cap, a small sequence budget (more
// portfolio retries), and the prescreen off (conventionally detected
// faults resimulate too).
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

// FuzzResimCrossCheck drives hand-built divergent expansions through
// the vector pass and the serial reference and asserts they agree. The fuzz input is
// decoded under the expand invariants: data[0] picks up to three steps,
// then (time unit, state variable, value) triples go round-robin to s0
// and the steps. An s0 triple assigns a binary value at a time unit
// below L (phase 1); a step takes the time unit of its first triple and
// assigns its side (bit 1 of the value byte) only cells that are X in
// s0 and unwritten by other steps. Every written unit is marked.
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
		nsteps := int(data[0]) % 4
		data = data[1:]
		x := handExpansion(bad)
		// s0 triples first: a step may write only cells X in the final s0.
		for i := 0; i+2 < len(data); i += 3 {
			if (i/3)%(nsteps+1) == 0 {
				u := int(data[i]) % L
				x.s0[u][int(data[i+1])%nFF] = logic.FromBool(data[i+2]%2 == 1)
				x.marks[u] = true
			}
		}
		x.steps = make([]expStep, nsteps)
		started := make([]bool, nsteps)
		written := map[[2]int]int{} // (u, j) -> step
		for i := 0; i+2 < len(data); i += 3 {
			k := (i/3)%(nsteps+1) - 1
			if k < 0 {
				continue
			}
			st := &x.steps[k]
			if !started[k] {
				started[k], st.u = true, int(data[i])%L
			}
			j, side := int(data[i+1])%nFF, int(data[i+2]>>1)&1
			v := logic.FromBool(data[i+2]%2 == 1)
			cell := [2]int{st.u, j}
			if w, ok := written[cell]; x.s0[st.u][j] != logic.X || (ok && w != k) {
				continue
			}
			dup := false
			for _, e := range st.extra[side] {
				dup = dup || e.j == j
			}
			if !dup {
				written[cell] = k
				st.extra[side] = append(st.extra[side], svAssign{j: j, v: v})
			}
		}
		for _, st := range x.steps {
			x.marks[st.u] = true
		}
		testResimulate(t, s, &fl, bad, x)
	})
}
