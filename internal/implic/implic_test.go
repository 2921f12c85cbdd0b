package implic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// baseFrame evaluates one frame and returns its values. An optional fault
// may be passed as the final argument.
func baseFrame(t *testing.T, c *netlist.Circuit, pi, ps string, flt ...*fault.Fault) []logic.Val {
	t.Helper()
	pat, err := logic.ParseVals(pi)
	if err != nil {
		t.Fatal(err)
	}
	st, err := logic.ParseVals(ps)
	if err != nil {
		t.Fatal(err)
	}
	var f *fault.Fault
	if len(flt) > 0 {
		f = flt[0]
	}
	vals := make([]logic.Val, c.NumNodes())
	seqsim.EvalFrame(c, pat, st, f, vals)
	return vals
}

// andOrBench: y = AND(a, q); d = OR(y, b). One FF q <- d.
const andOrBench = `
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
y = AND(a, q)
d = OR(y, b)
`

func TestAssignAndValue(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	fr := New(c, nil, baseFrame(t, c, "1x", "x"))
	q, _ := c.NodeByName("q")
	if fr.Value(q) != logic.X {
		t.Fatal("q should start unspecified")
	}
	if !fr.Assign(q, logic.One) {
		t.Fatal("assign failed")
	}
	if fr.Value(q) != logic.One {
		t.Fatal("assign did not stick")
	}
	if !fr.Assign(q, logic.One) {
		t.Fatal("re-assign same value failed")
	}
	if fr.Assign(q, logic.Zero) || !fr.Conflict() {
		t.Fatal("conflicting assign accepted")
	}
	if fr.ConflictNode() != q {
		t.Fatal("wrong conflict node")
	}
}

func TestAssignAfterConflictRejected(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	fr := New(c, nil, baseFrame(t, c, "1x", "x"))
	q, _ := c.NodeByName("q")
	fr.Assign(q, logic.One)
	fr.Assign(q, logic.Zero)
	a, _ := c.NodeByName("a")
	if fr.Assign(a, logic.One) {
		t.Fatal("assign after conflict should fail")
	}
}

func TestForwardSweepPropagates(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	// a=1, q unknown: y = q = X. Assign q=1 and sweep forward.
	fr := New(c, nil, baseFrame(t, c, "10", "x"))
	q, _ := c.NodeByName("q")
	y, _ := c.NodeByName("y")
	d, _ := c.NodeByName("d")
	fr.Assign(q, logic.One)
	if !fr.ForwardSweep() {
		t.Fatal("unexpected conflict")
	}
	if fr.Value(y) != logic.One || fr.Value(d) != logic.One {
		t.Fatalf("y=%v d=%v, want 1 1", fr.Value(y), fr.Value(d))
	}
}

func TestBackwardSweepInfers(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	// a=1, b=0, q unknown. Assert d=1: OR(y,0)=1 => y=1; AND(1,q)=1 => q=1.
	fr := New(c, nil, baseFrame(t, c, "10", "x"))
	q, _ := c.NodeByName("q")
	y, _ := c.NodeByName("y")
	if !fr.AssignNextState(0, logic.One) {
		t.Fatal("assert failed")
	}
	if !fr.BackwardSweep() {
		t.Fatal("unexpected conflict")
	}
	if fr.Value(y) != logic.One {
		t.Fatalf("y = %v, want 1", fr.Value(y))
	}
	if fr.Value(q) != logic.One {
		t.Fatalf("q = %v, want 1", fr.Value(q))
	}
}

func TestBackwardConflict(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	// a=0 forces y=0; b=0 forces d=0. Asserting d=1 must conflict.
	fr := New(c, nil, baseFrame(t, c, "00", "x"))
	if fr.AssignNextState(0, logic.One) && fr.ImplyTwoPass() {
		t.Fatal("expected conflict")
	}
	if !fr.Conflict() {
		t.Fatal("conflict flag not set")
	}
}

// diamondBench exercises reconvergent backward implications:
// n5 = OR(n3, q); n6 = OR(n4, q); d = AND(n5, n9); n9 = NOT(n6);
// n3 = AND(a, q2); n4 = AND(a, q2b)... Simplified version of the paper's
// Figure 4 shape (built properly in the circuits package).
const twoPassBench = `
INPUT(a)
OUTPUT(o)
q = DFF(d)
n3 = BUFF(a)
n5 = OR(n3, w)
w = BUFF(q)
d = AND(n5, n5x)
n5x = BUFF(n5)
o = BUFF(d)
`

func TestImplyTwoPassCombinesDirections(t *testing.T) {
	c := mustParse(t, "tp", twoPassBench)
	// a=0: n3=0, n5=OR(0,w)=w=q=X. Assert d=1: AND=1 => n5=1, n5x=1;
	// backward through n5: OR(0,w)=1 => w=1 => q=1. Forward: o=1.
	fr := New(c, nil, baseFrame(t, c, "0", "x"))
	if !fr.AssignNextState(0, logic.One) || !fr.ImplyTwoPass() {
		t.Fatalf("conflict: node %v", fr.ConflictNode())
	}
	q, _ := c.NodeByName("q")
	o, _ := c.NodeByName("o")
	if fr.Value(q) != logic.One {
		t.Fatalf("q = %v, want 1", fr.Value(q))
	}
	if fr.Value(o) != logic.One {
		t.Fatalf("o = %v, want 1 (forward pass)", fr.Value(o))
	}
}

func TestStemStuckNodeBlocksBackward(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	y, _ := c.NodeByName("y")
	q, _ := c.NodeByName("q")
	f := fault.Fault{Node: y, Gate: netlist.NoGate, Stuck: logic.One}
	// With y stuck at 1, d = OR(1, b) = 1 regardless. Asserting d=1 is
	// consistent and must NOT imply anything about q (the AND's true
	// output is unobservable).
	fr := New(c, &f, baseFrame(t, c, "0x", "x", &f))
	if !fr.AssignNextState(0, logic.One) || !fr.ImplyTwoPass() {
		t.Fatal("unexpected conflict")
	}
	if fr.Value(q) != logic.X {
		t.Fatalf("q = %v, want x (no inference through stuck stem)", fr.Value(q))
	}
}

func TestStemStuckAssertOpposite(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	d, _ := c.NodeByName("d")
	f := fault.Fault{Node: d, Gate: netlist.NoGate, Stuck: logic.One}
	fr := New(c, &f, baseFrame(t, c, "00", "x", &f))
	// d is stuck at 1; asserting the FF latches 0 is impossible.
	if fr.AssignNextState(0, logic.Zero) {
		t.Fatal("assertion against stuck value accepted")
	}
	if !fr.Conflict() {
		t.Fatal("conflict not flagged")
	}
}

func TestBranchStuckPinDemand(t *testing.T) {
	// y1 = AND(a, b); y2 = AND(a, c). Branch a->y1 stuck at 0.
	c := mustParse(t, "fan", `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y1)
OUTPUT(y2)
y1 = AND(a, b)
y2 = AND(a, c)
`)
	a, _ := c.NodeByName("a")
	y1, _ := c.NodeByName("y1")
	g1 := c.Nodes[y1].Driver
	f := fault.Fault{Node: a, Gate: g1, Pin: 0, Stuck: logic.Zero}
	// Inputs unknown. Asserting y1=1 demands pin a->y1 be 1, but it is
	// stuck at 0: conflict.
	fr := New(c, &f, baseFrame(t, c, "xxx", "", &f))
	fr.Assign(y1, logic.One)
	if fr.BackwardSweep() || !fr.Conflict() {
		t.Fatal("expected conflict at stuck branch")
	}
	// Asserting y1=0 is consistent (the stuck pin provides the 0) and
	// must not constrain the stem a.
	fr2 := New(c, &f, baseFrame(t, c, "xxx", "", &f))
	fr2.Assign(y1, logic.Zero)
	if !fr2.BackwardSweep() {
		t.Fatal("unexpected conflict")
	}
	if fr2.Value(a) != logic.X {
		t.Fatalf("a = %v, want x (stuck pin satisfies the demand)", fr2.Value(a))
	}
}

func TestOutputAndStateAccessors(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	fr := New(c, nil, baseFrame(t, c, "11", "1"))
	if fr.Output(0) != logic.One {
		t.Fatalf("Output(0) = %v, want 1", fr.Output(0))
	}
	if fr.NextState(0) != logic.One {
		t.Fatalf("NextState(0) = %v, want 1", fr.NextState(0))
	}
	if fr.PresentState(0) != logic.One {
		t.Fatalf("PresentState(0) = %v, want 1", fr.PresentState(0))
	}
}

// --- soundness property test ---

// randomCircuit builds a random combinational+FF circuit.
func randomCircuit(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("rand")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not && op != logic.Buf {
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

// TestImplicationSoundness is the central property test for the engine.
// For random circuits with unknown present state, after asserting a value
// on a random FF's D node and running implications:
//
//   - if the engine reports a conflict, no binary completion of the
//     present state satisfies the assertion;
//   - every value the engine derives holds in every binary completion of
//     the present state that satisfies the assertion.
//
// Completions are checked by exhaustive enumeration (few FFs).
func TestImplicationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trials := 0
	for trials < 120 {
		nFF := 3
		nGates := 6 + rng.Intn(14)
		if nGates < nFF {
			continue
		}
		c, err := randomCircuit(rng, 2, nFF, nGates)
		if err != nil {
			continue
		}
		trials++
		// Random binary inputs, all-X state.
		pi := make([]logic.Val, c.NumInputs())
		for i := range pi {
			pi[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		ps := make([]logic.Val, nFF)
		for i := range ps {
			ps[i] = logic.X
		}
		base := make([]logic.Val, c.NumNodes())
		seqsim.EvalFrame(c, pi, ps, nil, base)

		ffIdx := rng.Intn(nFF)
		alpha := logic.FromBool(rng.Intn(2) == 1)

		fr := New(c, nil, base)
		ok := fr.AssignNextState(ffIdx, alpha) && fr.ImplyTwoPass()

		// Enumerate all binary present states; keep those where the D node
		// of ffIdx equals alpha.
		full := make([]logic.Val, c.NumNodes())
		st := make([]logic.Val, nFF)
		var satisfying [][]logic.Val
		for m := 0; m < 1<<nFF; m++ {
			for i := range st {
				st[i] = logic.FromBool(m&(1<<i) != 0)
			}
			seqsim.EvalFrame(c, pi, st, nil, full)
			if full[c.FFs[ffIdx].D] == alpha {
				snapshot := make([]logic.Val, len(full))
				copy(snapshot, full)
				satisfying = append(satisfying, snapshot)
			}
		}
		if !ok {
			if len(satisfying) != 0 {
				t.Fatalf("trial %d: engine reported conflict but %d completions satisfy the assertion",
					trials, len(satisfying))
			}
			continue
		}
		// Every derived binary value must hold in every satisfying completion.
		for n := 0; n < c.NumNodes(); n++ {
			v := fr.Value(netlist.NodeID(n))
			if !v.IsBinary() {
				continue
			}
			for _, comp := range satisfying {
				if comp[n] != v {
					t.Fatalf("trial %d: engine derived node %s = %v, but a satisfying completion has %v",
						trials, c.NodeName(netlist.NodeID(n)), v, comp[n])
				}
			}
		}
	}
}

// TestClosureCoversDenseSweeps checks that the event-driven two-phase
// closure used by ImplyTwoPass derives every value the paper's dense
// backward+forward sweeps derive, never flips a value, and agrees on
// conflicts it cannot miss (a dense-sweep conflict implies a closure
// conflict, since the closure derives at least as much).
func TestClosureCoversDenseSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		c, err := randomCircuit(rng, 2, 4, 8+rng.Intn(18))
		if err != nil {
			continue
		}
		pi := make([]logic.Val, c.NumInputs())
		for i := range pi {
			pi[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		ps := []logic.Val{logic.X, logic.X, logic.X, logic.X}
		base := make([]logic.Val, c.NumNodes())
		seqsim.EvalFrame(c, pi, ps, nil, base)
		ffIdx := rng.Intn(4)
		alpha := logic.FromBool(rng.Intn(2) == 1)

		dense := New(c, nil, base)
		okDense := dense.AssignNextState(ffIdx, alpha) && dense.BackwardSweep() && dense.ForwardSweep()
		sparse := New(c, nil, base)
		okSparse := sparse.AssignNextState(ffIdx, alpha) && sparse.ImplyTwoPass()

		if !okDense && okSparse {
			t.Fatalf("trial %d: dense sweeps conflict but closure does not", trial)
		}
		if !okSparse {
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			vd := dense.Value(netlist.NodeID(n))
			vs := sparse.Value(netlist.NodeID(n))
			if vd.IsBinary() && vs != vd {
				t.Fatalf("trial %d: closure lost/flipped node %s: dense %v, closure %v",
					trial, c.NodeName(netlist.NodeID(n)), vd, vs)
			}
		}
	}
}

// TestFixpointAtLeastAsStrong checks the fixpoint schedule derives a
// superset of the two-pass schedule's values and never flips a value.
func TestFixpointAtLeastAsStrong(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		c, err := randomCircuit(rng, 2, 3, 8+rng.Intn(10))
		if err != nil {
			continue
		}
		pi := make([]logic.Val, c.NumInputs())
		for i := range pi {
			pi[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		ps := []logic.Val{logic.X, logic.X, logic.X}
		base := make([]logic.Val, c.NumNodes())
		seqsim.EvalFrame(c, pi, ps, nil, base)
		ffIdx := rng.Intn(3)
		alpha := logic.FromBool(rng.Intn(2) == 1)

		two := New(c, nil, base)
		okTwo := two.AssignNextState(ffIdx, alpha) && two.ImplyTwoPass()
		fix := New(c, nil, base)
		okFix := fix.AssignNextState(ffIdx, alpha) && fix.ImplyFixpoint(10)
		if okTwo && !okFix {
			// Fixpoint found a conflict two-pass missed: allowed (stronger).
			continue
		}
		if !okTwo {
			// Two-pass found a conflict; fixpoint runs at least the same
			// sweeps first, so it must conflict too.
			if okFix {
				t.Fatalf("trial %d: two-pass conflicts but fixpoint does not", trial)
			}
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			v2 := two.Value(netlist.NodeID(n))
			vf := fix.Value(netlist.NodeID(n))
			if v2.IsBinary() && vf != v2 {
				t.Fatalf("trial %d: fixpoint flipped node %d from %v to %v", trial, n, v2, vf)
			}
		}
	}
}
