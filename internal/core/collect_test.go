package core

import (
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// collectOne collects the single pair (u, i) on the pooled serial
// frame reset to bad.Nodes[u-1].
func (s *Simulator) collectOne(f *fault.Fault, bad *seqsim.Trace, u, i int) pairInfo {
	return s.collectOneInto(s.pairFrame(f, bad.Nodes[u-1]), f, bad, u, i)
}

// TestCollectOneMatchesFigure3 pins the collection step (Section 3.1) to
// the paper's Figure 3 values on the real s27. The circuit is s27 plus a
// dead cone carrying an undetectable branch fault, so the faulty trace
// equals the fault-free trace on every original signal. Collecting the
// pair (u=1, y=G6) must find, per the figure:
//
//   - G6 = 0 side: next-state variables G10 = 1 and (the asserted) G11 = 0
//     become specified at time 0;
//   - G6 = 1 side: G10 = 0, G11 = 1 and G13 = 0 become specified;
//   - no conflicts and no detections on either side.
func TestCollectOneMatchesFigure3(t *testing.T) {
	src := circuits.S27Bench + `
dead = AND(G5, G6)
deadbuf = BUFF(dead)
OUTPUT(deadbuf)
`
	c, err := bench.ParseString("s27x", src)
	if err != nil {
		t.Fatal(err)
	}
	// One pattern: the Figure 1 walkthrough pattern.
	pat, err := logic.ParseVals(circuits.S27Figure1Pattern)
	if err != nil {
		t.Fatal(err)
	}
	T := seqsim.Sequence{seqsim.Pattern(pat), seqsim.Pattern(pat)}
	s, err := NewSimulator(c, T, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dead, _ := c.NodeByName("dead")
	g5, _ := c.NodeByName("G5")
	f := fault.Fault{Node: g5, Gate: c.Nodes[dead].Driver, Pin: 0, Stuck: logic.One}
	bad, _, detected, err := s.sim.RunFault(T, s.good, f, true)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatal("dead-cone fault should be undetectable")
	}

	// FF order in the parse: G5 (0), G6 (1), G7 (2).
	p := s.collectOne(&f, bad, 1, 1)
	if p.conf[0] || p.conf[1] || p.detect[0] || p.detect[1] {
		t.Fatalf("unexpected conflicts/detections: %+v", p)
	}
	want0 := map[int]logic.Val{0: logic.One, 1: logic.Zero}
	want1 := map[int]logic.Val{0: logic.Zero, 1: logic.One, 2: logic.Zero}
	checkExtra(t, "alpha=0", p.extra[0], want0)
	checkExtra(t, "alpha=1", p.extra[1], want1)

	sv := append([]int(nil), p.sv...)
	sort.Ints(sv)
	if len(sv) != 3 || sv[0] != 0 || sv[1] != 1 || sv[2] != 2 {
		t.Fatalf("sv(u,i) = %v, want [0 1 2]", sv)
	}
}

func checkExtra(t *testing.T, label string, got []svAssign, want map[int]logic.Val) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: extra = %v, want %v", label, got, want)
	}
	for _, a := range got {
		if v, ok := want[a.j]; !ok || v != a.v {
			t.Fatalf("%s: unexpected extra (%d,%v); want %v", label, a.j, a.v, want)
		}
	}
}
