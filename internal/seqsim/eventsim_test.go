package seqsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomCircuitWide is randomCircuit with gate arities up to 4, so the
// packed base-3 LUT paths for 3- and 4-input gates (evalLUT3/evalLUT4)
// see property coverage alongside the 1- and 2-input fast paths. It
// uses its own rng so the existing randomCircuit-based tests keep their
// historical draws.
func randomCircuitWide(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("randwide")
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
			n = 2 + rng.Intn(3)
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
	for i := 0; i < 3 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

// compareTraces asserts two traces agree on every stored row.
func compareTraces(t *testing.T, tag string, a, b *Trace) {
	t.Helper()
	for u := range a.States {
		for j := range a.States[u] {
			if a.States[u][j] != b.States[u][j] {
				t.Fatalf("%s: state[%d][%d] event=%v full=%v", tag, u, j, a.States[u][j], b.States[u][j])
			}
		}
	}
	for u := range a.Outputs {
		for j := range a.Outputs[u] {
			if a.Outputs[u][j] != b.Outputs[u][j] {
				t.Fatalf("%s: output[%d][%d] event=%v full=%v", tag, u, j, a.Outputs[u][j], b.Outputs[u][j])
			}
		}
	}
	if (a.Nodes == nil) != (b.Nodes == nil) {
		t.Fatalf("%s: node rows kept on one trace only", tag)
	}
	for u := range a.Nodes {
		for n := range a.Nodes[u] {
			if a.Nodes[u][n] != b.Nodes[u][n] {
				t.Fatalf("%s: node[%d][%d] event=%v full=%v", tag, u, n, a.Nodes[u][n], b.Nodes[u][n])
			}
		}
	}
}

// TestEventSimMatchesLevelOrder is the evaluator property test: the
// event-driven sparse-delta evaluator and the full-pass reference
// (every gate of every faulty frame in level order, NewFullPass) must
// produce byte-identical traces (states, outputs and per-node rows) and
// identical detections, and evaluate the same number of faulty frames,
// each in its own mode, for random circuits, faults and sequences
// including 3- and 4-input gates.
func TestEventSimMatchesLevelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		c, err := randomCircuitWide(rng, 3, 4, 12+rng.Intn(30))
		if err != nil {
			continue
		}
		T := randomSequence(rng, c.NumInputs(), 2+rng.Intn(5))
		ev := New(c)
		lv := NewFullPass(c)
		good, err := ev.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.List(c)
		for k := 0; k < 8; k++ {
			f := faults[rng.Intn(len(faults))]
			ev.ResetStats()
			lv.ResetStats()
			trEv, atEv, detEv, err := ev.RunFault(T, good, f, true)
			if err != nil {
				t.Fatal(err)
			}
			trLv, atLv, detLv, err := lv.RunFault(T, good, f, true)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d fault %s", trial, f.Name(c))
			if detEv != detLv || atEv != atLv {
				t.Fatalf("%s: detection event=(%v,%+v) full=(%v,%+v)", tag, detEv, atEv, detLv, atLv)
			}
			compareTraces(t, tag, trEv, trLv)

			se, sl := ev.Stats(), lv.Stats()
			if se.FullFrames != 0 || sl.EventFrames != 0 || se.EventFrames != sl.FullFrames {
				t.Fatalf("%s: frame counters:\n  event: %+v\n  full:  %+v", tag, se, sl)
			}
		}
	}
}

// TestEventSimFrameDeltaMatches checks the exported FrameDelta entry
// point: it must reproduce the full re-evaluation (EvalFrame) exactly,
// for random frames with X inputs, faults and divergent present states,
// including 3- and 4-input gates.
func TestEventSimFrameDeltaMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		c, err := randomCircuitWide(rng, 3, 4, 12+rng.Intn(24))
		if err != nil {
			continue
		}
		ev := New(c)
		pat := make(Pattern, c.NumInputs())
		for i := range pat {
			pat[i] = logic.Val(rng.Intn(3))
		}
		goodPS := make([]logic.Val, c.NumFFs())
		badPS := make([]logic.Val, c.NumFFs())
		for i := range goodPS {
			goodPS[i] = logic.Val(rng.Intn(3))
			badPS[i] = logic.Val(rng.Intn(3))
		}
		goodVals := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, goodPS, nil, goodVals)

		faults := fault.List(c)
		f := faults[rng.Intn(len(faults))]
		want := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, badPS, &f, want)
		gotEv := ev.FrameDelta(pat, badPS, goodVals, &f)
		for n := range want {
			if gotEv[n] != want[n] {
				t.Fatalf("trial %d fault %s: node %s event=%v full=%v",
					trial, f.Name(c), c.NodeName(netlist.NodeID(n)), gotEv[n], want[n])
			}
		}
		// Fault-free frames must pass through unchanged too.
		gotEv = ev.FrameDelta(pat, goodPS, goodVals, nil)
		for n := range goodVals {
			if gotEv[n] != goodVals[n] {
				t.Fatalf("trial %d: fault-free event delta diverged at node %d", trial, n)
			}
		}
	}
}

// eventFuzzBench mixes arities 1-4 over reconvergent FF fanout so the
// fuzzer exercises every packed-LUT width and the cone boundary.
const eventFuzzBench = `
INPUT(a)
INPUT(b)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
n1 = NOT(q1)
w3 = AND(a, b, q1)
w4 = NOR(a, b, q1, q2)
d1 = XOR(n1, w4)
d2 = OR(w3, q2)
o1 = NAND(w3, w4, d1, d2)
o2 = XNOR(q1, q2)
`

// FuzzEventSimFrameDelta decodes the fuzz input as a frame (pattern
// bits, present-state values, fault pick) and asserts the event-driven
// FrameDelta agrees with a full re-evaluation (EvalFrame).
func FuzzEventSimFrameDelta(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{9, 0, 1, 2, 0, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := mustParse(t, "eventfuzz", eventFuzzBench)
		ev := New(c)
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pat := make(Pattern, c.NumInputs())
		for i := range pat {
			pat[i] = logic.Val(at(i) % 3)
		}
		goodPS := make([]logic.Val, c.NumFFs())
		badPS := make([]logic.Val, c.NumFFs())
		for i := range goodPS {
			goodPS[i] = logic.Val(at(len(pat)+i) % 3)
			badPS[i] = logic.Val(at(len(pat)+len(goodPS)+i) % 3)
		}
		goodVals := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, goodPS, nil, goodVals)
		faults := fault.List(c)
		fl := faults[int(at(len(pat)+2*len(goodPS)))%len(faults)]
		want := make([]logic.Val, c.NumNodes())
		EvalFrame(c, pat, badPS, &fl, want)
		gotEv := ev.FrameDelta(pat, badPS, goodVals, &fl)
		for n := range want {
			if gotEv[n] != want[n] {
				t.Fatalf("fault %s: node %s event=%v full=%v",
					fl.Name(c), c.NodeName(netlist.NodeID(n)), gotEv[n], want[n])
			}
		}
	})
}
