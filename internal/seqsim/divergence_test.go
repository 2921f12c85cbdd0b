package seqsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// sameTraces asserts two fault traces hold the same rows, frame for
// frame: equal lengths (the same drop frame) and equal states, outputs
// and node values.
func sameTraces(t *testing.T, tag string, got, want *Trace) {
	t.Helper()
	if len(got.States) != len(want.States) || len(got.Outputs) != len(want.Outputs) || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: trace lengths states/outputs/nodes %d/%d/%d, want %d/%d/%d", tag,
			len(got.States), len(got.Outputs), len(got.Nodes),
			len(want.States), len(want.Outputs), len(want.Nodes))
	}
	compareTraces(t, tag, got, want)
}

// checkDivergenceEquivalence simulates every fault of c over T with the
// divergence-driven simulator (New) and the full-pass reference
// (NewFullPass), through both RunFault and RunFaultInto, with and
// without node rows, and asserts identical traces, detections and drop
// frames. goodNodes selects whether the fault-free trace keeps its node
// rows (without them the simulator falls back to full frames). It
// returns the reference detection of every fault, in fault.List order.
func checkDivergenceEquivalence(t *testing.T, c *netlist.Circuit, T Sequence, goodNodes bool) []Detection {
	t.Helper()
	ev, ref := New(c), NewFullPass(c)
	good, err := ev.Run(T, nil, goodNodes)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.List(c)
	dets := make([]Detection, len(faults))
	for _, keep := range []bool{true, false} {
		into := NewTrace(c, len(T), keep)
		for k, f := range faults {
			tag := fmt.Sprintf("%s fault %s keepNodes=%v", c.Name, f.Name(c), keep)
			want, wantAt, wantDet, err := ref.RunFault(T, good, f, keep)
			if err != nil {
				t.Fatal(err)
			}
			got, at, det, err := ev.RunFault(T, good, f, keep)
			if err != nil {
				t.Fatal(err)
			}
			if det != wantDet || at != wantAt {
				t.Fatalf("%s: RunFault detection (%v,%+v), full pass (%v,%+v)", tag, det, at, wantDet, wantAt)
			}
			sameTraces(t, tag+" RunFault", got, want)
			at, det, err = ev.RunFaultInto(into, T, good, f, keep)
			if err != nil {
				t.Fatal(err)
			}
			if det != wantDet || at != wantAt {
				t.Fatalf("%s: RunFaultInto detection (%v,%+v), full pass (%v,%+v)", tag, det, at, wantDet, wantAt)
			}
			sameTraces(t, tag+" RunFaultInto", into, want)
			if !wantDet {
				wantAt = Detection{Time: -1}
			}
			dets[k] = wantAt
		}
	}
	return dets
}

// detectionOf returns the detection recorded for the named fault.
func detectionOf(t *testing.T, c *netlist.Circuit, dets []Detection, name string) Detection {
	t.Helper()
	for k, f := range fault.List(c) {
		if f.Name(c) == name {
			return dets[k]
		}
	}
	t.Fatalf("%s: no fault %s", c.Name, name)
	return Detection{}
}

// TestDivergenceEdgeCases runs the divergence equivalence check on small
// circuits built around the structural corners of divergence tracking:
// every fault of each circuit is compared against the full-pass
// reference. Where a case's point is a specific fault, its reference
// detection is pinned too, so the case cannot silently stop covering it.
func TestDivergenceEdgeCases(t *testing.T) {
	cases := []struct {
		name, src string
		seq       []string
		noNodes   bool
		// pins maps a fault name to its expected detection; Time -1
		// means undetected.
		pins map[string]Detection
	}{
		{
			// q is both a flip-flop Q node and a primary output; its stem
			// faults stick the state variable itself, whatever d does.
			name: "q-stem-po",
			src: `
INPUT(r)
INPUT(x)
OUTPUT(q)
OUTPUT(o)
q = DFF(d)
d = AND(r, x)
o = XOR(q, x)
`,
			seq:  []string{"11", "01", "10", "11", "00"},
			pins: map[string]Detection{"q/SA0": {Time: 1, Output: 0}, "q/SA1": {Time: 2, Output: 0}},
		},
		{
			// The D node is a primary output: its stem fault changes the
			// output at once and the state one frame later.
			name: "d-stem-po",
			src: `
INPUT(a)
INPUT(b)
OUTPUT(d)
OUTPUT(o)
q = DFF(d)
d = NAND(a, b)
o = BUFF(q)
`,
			seq:  []string{"11", "10", "11", "01"},
			pins: map[string]Detection{"d/SA1": {Time: 0, Output: 0}},
		},
		{
			// A primary input wired straight to a D node, and a chain of
			// flip-flops whose D nodes are the previous Q nodes: a fault
			// on the input reaches the output only after three frames.
			name: "pi-d-chain",
			src: `
INPUT(a)
INPUT(e)
OUTPUT(o)
q1 = DFF(a)
q2 = DFF(q1)
q3 = DFF(q2)
o = AND(q3, e)
`,
			seq:  []string{"01", "11", "01", "11", "11"},
			pins: map[string]Detection{"a/SA1": {Time: 3, Output: 0}, "q2/SA1": {Time: 3, Output: 0}},
		},
		{
			// q fans out to two gates, so its branches carry their own
			// faults: a branch fault changes one reader of a Q node.
			name: "branch-on-q",
			src: `
INPUT(a)
OUTPUT(o1)
OUTPUT(o2)
q = DFF(d)
d = NOT(q)
o1 = AND(q, a)
o2 = OR(q, a)
`,
			seq: []string{"1", "0", "1", "0"},
		},
		{
			// Both outputs flip in frame 0 under a/SA0; the lower
			// position (od) sits one level deeper, so the faulty machine
			// changes os before od and the detection must still name od.
			name: "two-outputs-same-frame",
			src: `
INPUT(a)
INPUT(b)
OUTPUT(od)
OUTPUT(os)
t = BUFF(a)
od = AND(t, b)
os = BUFF(a)
q = DFF(od)
`,
			seq:  []string{"11", "10"},
			pins: map[string]Detection{"a/SA0": {Time: 0, Output: 0}},
		},
		{
			// A fault-free trace without node rows: every faulty frame
			// takes the full path.
			name: "good-without-nodes",
			src: `
INPUT(r)
INPUT(x)
OUTPUT(obs)
OUTPUT(q)
q = DFF(d)
d = AND(r, t)
t = XOR(q, x)
obs = BUFF(q)
`,
			seq:     []string{"00", "11", "10", "11"},
			noNodes: true,
			pins:    map[string]Detection{"q/SA1": {Time: 1, Output: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustParse(t, tc.name, tc.src)
			dets := checkDivergenceEquivalence(t, c, mustSeq(t, tc.seq...), !tc.noNodes)
			for name, want := range tc.pins {
				if got := detectionOf(t, c, dets, name); got != want {
					t.Errorf("%s: detection %+v, want %+v", name, got, want)
				}
			}
		})
	}
}

// edgeCircuit builds a random circuit that reaches the structural
// corners of divergence tracking: D nodes that are primary inputs,
// earlier flip-flops' Q nodes (flip-flop chains) or gate outputs, and
// primary outputs on inputs, Q nodes, D nodes and gates alike.
func edgeCircuit(rng *rand.Rand) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("edge")
	var pool, spare []netlist.NodeID // spare: not yet a D node
	var names []string               // names[k] names pool[k]
	add := func(id netlist.NodeID, name string) {
		pool = append(pool, id)
		names = append(names, name)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		name := fmt.Sprintf("i%d", i)
		id := b.Input(name)
		add(id, name)
		spare = append(spare, id)
	}
	nFF := 1 + rng.Intn(4)
	var gateD []string // D nodes still to be defined by a gate
	for i := 0; i < nFF; i++ {
		var d netlist.NodeID
		if len(spare) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(spare))
			d = spare[k]
			spare = append(spare[:k], spare[k+1:]...)
		} else {
			name := fmt.Sprintf("d%d", i)
			d = b.Signal(name)
			gateD = append(gateD, name)
		}
		name := fmt.Sprintf("q%d", i)
		q := b.FlipFlop(name, d)
		add(q, name)
		spare = append(spare, q)
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	nGates := len(gateD) + 1 + rng.Intn(10)
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		ins := make([]netlist.NodeID, 1)
		if op != logic.Not && op != logic.Buf {
			ins = make([]netlist.NodeID, 2+rng.Intn(2))
		}
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		name := fmt.Sprintf("g%d", i)
		if i < len(gateD) {
			name = gateD[i]
		}
		add(b.Gate(op, name, ins...), name)
	}
	for _, k := range rng.Perm(len(pool))[:1+rng.Intn(min(len(pool), 4))] {
		b.Output(names[k])
	}
	return b.Build()
}

// FuzzDivergenceMatchesFullPass draws a circuit (edgeCircuit), a test
// sequence with X values and a fault-free trace with or without node
// rows from the fuzz input, and runs the divergence equivalence check
// on every fault.
func FuzzDivergenceMatchesFullPass(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		f.Add(seed, uint8(4), true)
	}
	f.Add(int64(5), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, length uint8, goodNodes bool) {
		rng := rand.New(rand.NewSource(seed))
		c, err := edgeCircuit(rng)
		if err != nil {
			t.Skip(err)
		}
		T := make(Sequence, 1+int(length)%8)
		for u := range T {
			T[u] = make(Pattern, c.NumInputs())
			for i := range T[u] {
				T[u][i] = logic.Val(rng.Intn(3))
			}
		}
		checkDivergenceEquivalence(t, c, T, goodNodes)
	})
}
