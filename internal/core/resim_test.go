package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// resimCircuit: q1, q2 free-running; o1 = AND(a, q1), o2 = AND(a, q2);
// q1' = NOT(q1), q2' = BUFF(q2). With a=0 the fault-free outputs are 00.
const resimBench = `
INPUT(a)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = NOT(q1)
d2 = BUFF(q2)
o1 = AND(a, q1)
o2 = AND(a, q2)
`

// resimSetup builds a simulator over the all-zero sequence and returns
// the faulty trace of the stem fault a stuck-at-1 (outputs observe the
// state variables).
func resimSetup(t *testing.T, L int) (*Simulator, fault.Fault, *seqsim.Trace) {
	t.Helper()
	c, err := bench.ParseString("resim", resimBench)
	if err != nil {
		t.Fatal(err)
	}
	T := make(seqsim.Sequence, L)
	for u := range T {
		T[u] = seqsim.Pattern{logic.Zero}
	}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.NodeByName("a")
	f := fault.Fault{Node: a, Gate: netlist.NoGate, Stuck: logic.One}
	bad, _, detected, err := s.sim.RunFault(T, s.good, f, true)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatal("setup fault should not be conventionally detected")
	}
	return s, f, bad
}

// handExpansion returns an expansion of bad with no assignments: s0 is
// a copy of the trace, no steps, nothing marked.
func handExpansion(bad *seqsim.Trace) *expansion {
	return &expansion{s0: cloneStates(bad.States), marks: make([]bool, len(bad.States))}
}

// testResimulate mirrors the expand/resimulate coupling for hand-built
// expansions: it records as seeds the state variables s0 or a step
// assigns (as expand does), then runs the bit-parallel pass and the
// serial path over the materialized sequences and asserts they agree.
func testResimulate(t *testing.T, s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion) bool {
	t.Helper()
	s.seedReset()
	x.seeds = x.seeds[:0]
	for u, row := range x.s0 {
		for j, v := range row {
			if v != bad.States[u][j] {
				s.seedAdd(x, j)
			}
		}
	}
	for _, st := range x.steps {
		for _, side := range st.extra {
			for _, a := range side {
				s.seedAdd(x, a.j)
			}
		}
	}
	bp := s.resimulateVV(f, bad, x)
	s.cfg.BitParallelResim = false
	serial := s.resimulate(f, bad, x)
	s.cfg.BitParallelResim = true
	if bp != serial {
		t.Fatalf("bit-parallel resimulate = %v, serial = %v", bp, serial)
	}
	return bp
}

// TestResimulateDetection: pinning q1 = 1 at time 0 must produce o1 = 1,
// conflicting with the fault-free 0 — the sequence resolves by detection.
func TestResimulateDetection(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	x := handExpansion(bad)
	x.s0[0][0] = logic.One
	x.marks[0] = true
	if !testResimulate(t, s, &f, bad, x) {
		t.Fatal("detection not found")
	}
}

// TestResimulatePropagatesForward: pinning q1 = 0 at time 0 yields no
// conflict at time 0, but the toggle makes q1 = 1 at time 1, so the
// newly-marked frame 1 detects.
func TestResimulatePropagatesForward(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	x := handExpansion(bad)
	x.s0[0][0] = logic.Zero
	x.marks[0] = true
	if !testResimulate(t, s, &f, bad, x) {
		t.Fatal("forward-propagated detection not found")
	}
}

// TestResimulateInfeasible: a state assignment contradicting the next
// state computed from an earlier frame resolves as infeasible.
func TestResimulateInfeasible(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	x := handExpansion(bad)
	// q2 holds its value (d2 = BUFF(q2)); claiming q2 = 0 at time 0 and
	// q2 = 1 at time 1 is infeasible, and the sequence resolves without a
	// detection on o2... but o1 may still detect through q1's toggle. Pin
	// q1 to keep o1 quiet is impossible (toggle always shows), so use a
	// dedicated check on the conflict branch: claim q2 values only and
	// verify resolution.
	x.s0[0][1] = logic.Zero
	x.s0[1][1] = logic.One
	x.marks[0] = true
	// Expansion marks every time unit it writes, so the hand-built
	// assignment at time 1 marks that unit too.
	x.marks[1] = true
	if !testResimulate(t, s, &f, bad, x) {
		t.Fatal("sequence should resolve (infeasible or detected)")
	}
}

// TestResimulateSurvivor: with nothing marked, nothing resolves and the
// fault stays undetected.
func TestResimulateSurvivor(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	if testResimulate(t, s, &f, bad, handExpansion(bad)) {
		t.Fatal("unmarked sequence should not resolve")
	}
}

// TestResimulateAllSequencesRequired: one resolving and one surviving
// sequence must not count as detection. One step at time 0 splits s0
// into the detecting sequence (side 0: q1 = 1) and the survivor (side
// 1: nothing assigned).
func TestResimulateAllSequencesRequired(t *testing.T) {
	s, f, bad := resimSetup(t, 3)
	x := handExpansion(bad)
	x.steps = append(x.steps, expStep{u: 0, extra: [2][]svAssign{{{j: 0, v: logic.One}}, nil}})
	x.marks[0] = true
	// The surviving sequence has everything unspecified at its marked
	// frame; simulation specifies nothing that conflicts, so it survives.
	if testResimulate(t, s, &f, bad, x) {
		t.Fatal("survivor ignored")
	}
	// With the survivor pinned to q1 = 0, the toggle detects at time 1:
	// both sequences resolve.
	x.steps[0].extra[1] = []svAssign{{j: 0, v: logic.Zero}}
	if !testResimulate(t, s, &f, bad, x) {
		t.Fatal("both sides resolve, detection not found")
	}
}
