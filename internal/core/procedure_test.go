package core

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// vals parses a value string into a slice.
func vals(t *testing.T, s string) []logic.Val {
	t.Helper()
	v, err := logic.ParseVals(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestProfileMatchesPaperExample reproduces the N_out example given for
// Table 1(a): fault-free outputs (xx0, 0x1, 111, 011) and faulty outputs
// (x0x, xxx, 1x1, 011) give N_out(0)=4, N_out(1)=3, N_out(2)=1,
// N_out(3)=0.
func TestProfileMatchesPaperExample(t *testing.T) {
	good := &seqsim.Trace{
		Outputs: [][]logic.Val{
			vals(t, "xx0"), vals(t, "0x1"), vals(t, "111"), vals(t, "011"),
		},
	}
	bad := &seqsim.Trace{
		Outputs: [][]logic.Val{
			vals(t, "x0x"), vals(t, "xxx"), vals(t, "1x1"), vals(t, "011"),
		},
		States: [][]logic.Val{
			vals(t, "xx"), vals(t, "xx"), vals(t, "0x"), vals(t, "x1"), vals(t, "00"),
		},
	}
	s := &Simulator{T: make(seqsim.Sequence, 4), good: good}
	nsv, nout := s.profile(bad)
	wantNout := []int{4, 3, 1, 0}
	for u, want := range wantNout {
		if nout[u] != want {
			t.Errorf("N_out(%d) = %d, want %d", u, nout[u], want)
		}
	}
	wantNsv := []int{2, 2, 1, 1, 0}
	for u, want := range wantNsv {
		if nsv[u] != want {
			t.Errorf("N_sv(%d) = %d, want %d", u, nsv[u], want)
		}
	}
	if !conditionC(nsv, nout) {
		t.Error("condition C should hold for the Table 1 example")
	}
}

func TestConditionCEdges(t *testing.T) {
	// N_sv positive only where N_out is zero: condition fails.
	if conditionC([]int{0, 0, 2}, []int{3, 0}) {
		t.Error("condition C should fail when the positive entries never align")
	}
	if !conditionC([]int{1, 0}, []int{1}) {
		t.Error("condition C should hold at u=0")
	}
	if conditionC([]int{0, 0}, []int{5}) {
		t.Error("condition C needs unspecified state variables")
	}
}

func TestPairCounters(t *testing.T) {
	// Clean pair: extra sizes add up.
	p := pairInfo{
		extra: [2][]svAssign{
			{{0, logic.Zero}, {1, logic.One}},
			{{0, logic.One}},
		},
	}
	c := p.counters()
	if c.Det != 0 || c.Conf != 0 || c.Extra != 3 {
		t.Errorf("clean pair counters = %+v", c)
	}
	// Detection on side 1: N_det++ and extra of side 0.
	p.detect[1] = true
	c = p.counters()
	if c.Det != 1 || c.Conf != 0 || c.Extra != 2 {
		t.Errorf("detect pair counters = %+v", c)
	}
	// Conflict on side 0 as well: both rules fire.
	p.conf[0] = true
	c = p.counters()
	if c.Det != 1 || c.Conf != 1 || c.Extra != 2+1 {
		t.Errorf("conf+detect counters = %+v", c)
	}
}

func TestTrivialPair(t *testing.T) {
	s := &Simulator{c: circuits.S27()}
	p := s.trivialPair(3, 2)
	if p.u != 3 || p.i != 2 {
		t.Fatal("wrong coordinates")
	}
	if len(p.extra[0]) != 1 || p.extra[0][0] != (svAssign{j: 2, v: logic.Zero}) {
		t.Error("extra[0] wrong")
	}
	if len(p.extra[1]) != 1 || p.extra[1][0] != (svAssign{j: 2, v: logic.One}) {
		t.Error("extra[1] wrong")
	}
	if len(p.sv) != 1 || p.sv[0] != 2 {
		t.Error("sv wrong")
	}
	if p.resolved(0) || p.resolved(1) {
		t.Error("trivial pair should be unresolved")
	}
	// Every trivial pair of a flip-flop shares the table's slices.
	if q := s.trivialPair(0, 2); &q.extra[0][0] != &p.extra[0][0] || &q.sv[0] != &p.sv[0] {
		t.Error("trivial pairs of one flip-flop do not share their slices")
	}
}

// seqOf builds a sequence with the given per-time state strings.
func seqOf(t *testing.T, rows ...string) *sequence {
	t.Helper()
	states := make([][]logic.Val, len(rows))
	for u, r := range rows {
		states[u] = vals(t, r)
	}
	return &sequence{states: states}
}

// expandable is the full-scan Procedure 2 step 3 check for pair p:
// every state variable in sv(u, i) is unspecified at time u in every
// sequence. It is the oracle for selectPair's O(|sv|) unassigned.
func expandable(p *pairInfo, seqs []*sequence) bool {
	for _, sq := range seqs {
		row := sq.states[p.u]
		for _, j := range p.sv {
			if row[j] != logic.X {
				return false
			}
		}
	}
	return true
}

func TestExpandableConstraint(t *testing.T) {
	p := &pairInfo{u: 1, i: 0, sv: []int{0, 1}}
	all := []*sequence{seqOf(t, "xx", "xx", "xx")}
	if !expandable(p, all) {
		t.Error("fully unspecified sequence should be expandable")
	}
	partial := []*sequence{seqOf(t, "xx", "x1", "xx")}
	if expandable(p, partial) {
		t.Error("sv(u,i) includes a specified variable: not expandable")
	}
	otherTime := []*sequence{seqOf(t, "11", "xx", "11")}
	if !expandable(p, otherTime) {
		t.Error("specified values at other time units must not block expansion")
	}
}

// mkPair builds a clean pair with given extras.
func mkPair(u, i, n0, n1 int) pairInfo {
	p := pairInfo{u: u, i: i, sv: []int{i}}
	for k := 0; k < n0; k++ {
		p.extra[0] = append(p.extra[0], svAssign{j: i, v: logic.Zero})
	}
	for k := 0; k < n1; k++ {
		p.extra[1] = append(p.extra[1], svAssign{j: i, v: logic.One})
	}
	return p
}

func TestSelectPairCriteria(t *testing.T) {
	s := &Simulator{}
	x := &expansion{s0: seqOf(t, "xxxx", "xxxx", "xxxx").states}

	// Criterion 1: maximum N_out wins.
	pairs := []pairInfo{mkPair(1, 0, 5, 5), mkPair(0, 1, 1, 1)}
	nsv := []int{4, 4, 4}
	nout := []int{9, 3}
	if got := s.selectPair(pairs, x, nsv, nout); got != 1 {
		t.Errorf("criterion 1: selected %d, want 1 (max N_out)", got)
	}

	// Criterion 2: minimum N_sv among equal N_out.
	pairs = []pairInfo{mkPair(0, 0, 5, 5), mkPair(1, 1, 1, 1)}
	nsv = []int{4, 2, 4}
	nout = []int{7, 7}
	if got := s.selectPair(pairs, x, nsv, nout); got != 1 {
		t.Errorf("criterion 2: selected %d, want 1 (min N_sv)", got)
	}

	// Criterion 3: larger min(extra0, extra1).
	pairs = []pairInfo{mkPair(0, 0, 1, 4), mkPair(0, 1, 2, 2)}
	nsv = []int{4, 4}
	nout = []int{7, 7}
	if got := s.selectPair(pairs, x, nsv, nout); got != 1 {
		t.Errorf("criterion 3: selected %d, want 1 (max of min extra)", got)
	}

	// Criterion 4: larger max(extra0, extra1) among equal mins.
	pairs = []pairInfo{mkPair(0, 0, 2, 2), mkPair(0, 1, 2, 3)}
	if got := s.selectPair(pairs, x, nsv, nout); got != 1 {
		t.Errorf("criterion 4: selected %d, want 1 (max of max extra)", got)
	}

	// Resolved pairs are never selected.
	pairs[1].conf[0] = true
	if got := s.selectPair(pairs, x, nsv, nout); got != 0 {
		t.Errorf("resolved pair selected: got %d, want 0", got)
	}

	// Zero N_out disqualifies.
	pairs = []pairInfo{mkPair(1, 0, 2, 2)}
	nout = []int{3, 0}
	if got := s.selectPair(pairs, x, nsv, nout); got != -1 {
		t.Errorf("pair at N_out=0 selected: got %d", got)
	}
}

// cloneStates deep-copies a state matrix.
func cloneStates(src [][]logic.Val) [][]logic.Val {
	dst := make([][]logic.Val, len(src))
	for u := range src {
		row := make([]logic.Val, len(src[u]))
		copy(row, src[u])
		dst[u] = row
	}
	return dst
}

func TestCloneStatesIndependent(t *testing.T) {
	src := [][]logic.Val{vals(t, "x1"), vals(t, "0x")}
	dst := cloneStates(src)
	dst[0][0] = logic.One
	if src[0][0] != logic.X {
		t.Error("cloneStates shares storage")
	}
}
