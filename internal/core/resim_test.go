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
// serial reference over the materialized sequences and asserts they
// agree.
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
	_, nout := s.profile(bad)
	bp := s.resimulate(f, bad, x, nout)
	serial := s.resimulateRef(f, x)
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

// horizonBench gates both outputs with an enable input b: while b = 0
// the faulty outputs are binary (0), so under a SA1 only the units with
// b = 1 can detect, and N_out ends at the last of them.
const horizonBench = `
INPUT(a)
INPUT(b)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
d1 = NOT(q1)
d2 = BUFF(q2)
o1 = AND(a, b, q1)
o2 = AND(a, b, q2)
`

// horizonSetup builds a simulator over L patterns with a = 0 and b = 1
// exactly at units u < enabled, and returns the faulty trace of a
// stuck-at-1: the last unit with N_out > 0 is enabled-1.
func horizonSetup(t *testing.T, L, enabled int) (*Simulator, fault.Fault, *seqsim.Trace) {
	t.Helper()
	c, err := bench.ParseString("horizon", horizonBench)
	if err != nil {
		t.Fatal(err)
	}
	T := make(seqsim.Sequence, L)
	for u := range T {
		T[u] = seqsim.Pattern{logic.Zero, logic.Zero}
		if u < enabled {
			T[u][1] = logic.One
		}
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
	_, nout := s.profile(bad)
	if last := enabled - 1; nout[last] == 0 || (last+1 < L && nout[last+1] != 0) {
		t.Fatalf("N_out %v: want the last nonzero unit at %d", nout, last)
	}
	return s, f, bad
}

// horizonResim runs testResimulate on a fresh record and returns its
// verdict with the vector frames and passes it ran.
func horizonResim(t *testing.T, s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion) (ok bool, frames, passes int) {
	t.Helper()
	s.rec = faultRecord{}
	ok = testResimulate(t, s, f, bad, x)
	return ok, int(s.rec.work.ResimVectorFrames), int(s.rec.work.ResimVectorPasses)
}

// TestResimHorizonLastNoutUnit: the only detection opportunity is at
// the last unit with N_out > 0, reached by propagation from a mark
// before it. q1 = 0 at unit 1 toggles to q1 = 1 at unit 2, where o1
// detects: the horizon (2) comes from N_out alone, as the last mark is
// at 1.
func TestResimHorizonLastNoutUnit(t *testing.T) {
	s, f, bad := horizonSetup(t, 5, 3)
	x := handExpansion(bad)
	x.s0[1][0] = logic.Zero
	x.marks[1] = true
	ok, frames, _ := horizonResim(t, s, &f, bad, x)
	if !ok || frames != 2 {
		t.Fatalf("resolved %v over %d frames, want a detection at frame 2 after 2 frames", ok, frames)
	}
}

// TestResimHorizonLastMarkConflict: the only conflict is at the last
// marked unit, past every detection opportunity (N_out ends at unit 0).
// q2 holds its value, so q2 = 0 at unit 3 contradicts q2 = 1 at unit 4:
// frame 3, the horizon, resolves the lane.
func TestResimHorizonLastMarkConflict(t *testing.T) {
	s, f, bad := horizonSetup(t, 6, 1)
	x := handExpansion(bad)
	x.s0[3][1] = logic.Zero
	x.s0[4][1] = logic.One
	x.marks[3], x.marks[4] = true, true
	ok, frames, _ := horizonResim(t, s, &f, bad, x)
	if !ok || frames != 1 {
		t.Fatalf("resolved %v over %d frames, want a conflict at frame 3 after 1 frame", ok, frames)
	}
}

// TestResimHorizonMarkAfterNout: phase 1 marks unit 3, after the last
// N_out unit (1). q2 = 0 forced at unit 0 propagates to units 1 and 2;
// with q2 = 1 forced at unit 3 frame 2 (the horizon) conflicts. With
// q2 = 0 there, nothing resolves, and the marked frame 3 lies past the
// horizon: the pass fails after frames 0-2, as the full-length
// reference does.
func TestResimHorizonMarkAfterNout(t *testing.T) {
	for _, tc := range []struct {
		at3    logic.Val
		want   bool
		frames int
	}{
		{logic.One, true, 3},
		{logic.Zero, false, 3},
	} {
		s, f, bad := horizonSetup(t, 6, 2)
		x := handExpansion(bad)
		x.s0[0][1] = logic.Zero
		x.s0[3][1] = tc.at3
		x.marks[0], x.marks[3] = true, true
		ok, frames, _ := horizonResim(t, s, &f, bad, x)
		if ok != tc.want || frames != tc.frames {
			t.Fatalf("q2 = %v at unit 3: resolved %v over %d frames, want %v over %d",
				tc.at3, ok, frames, tc.want, tc.frames)
		}
	}
}

// TestResimHorizonPerChunk: 128 sequences (N_STATES > 64) run as two
// 64-lane chunks, and each stops at the same horizon. The first step
// splits the chunks: chunk 0 pins q1 = 1 at unit 0 and detects at
// frame 0; chunk 1 pins q2 = 0 at unit 0, which propagates until it
// conflicts with q2 = 1 forced at unit 3 in frame 2, the horizon. Six
// empty steps at unit 0 fill the chunks.
func TestResimHorizonPerChunk(t *testing.T) {
	s, f, bad := horizonSetup(t, 6, 2)
	x := handExpansion(bad)
	x.s0[3][1] = logic.One
	x.marks[0], x.marks[3] = true, true
	x.steps = append(x.steps, expStep{u: 0, extra: [2][]svAssign{
		{{j: 0, v: logic.One}},
		{{j: 1, v: logic.Zero}},
	}})
	for k := 0; k < 6; k++ {
		x.steps = append(x.steps, expStep{u: 0})
	}
	ok, frames, passes := horizonResim(t, s, &f, bad, x)
	if !ok || passes != 2 || frames != 1+3 {
		t.Fatalf("resolved %v over %d passes and %d frames, want both chunks resolved over 2 passes and 4 frames",
			ok, passes, frames)
	}
	// With q2 = 0 forced at unit 3 instead, chunk 1 survives to the
	// horizon and the fault stays undetected.
	x.s0[3][1] = logic.Zero
	if ok, frames, _ := horizonResim(t, s, &f, bad, x); ok || frames != 1+3 {
		t.Fatalf("resolved %v over %d frames, want chunk 1 unresolved after 4 frames", ok, frames)
	}
}
