package seqsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// goldenRun is an independent sequential simulator written directly
// against the pointer-chasing netlist model — the shape of the
// pre-compiled-IR evaluators. It is the byte-identical reference the
// divergence-driven, delta-evaluating Simulator is cross-checked against.
func goldenRun(c *netlist.Circuit, T Sequence, f *fault.Fault, keepNodes bool) *Trace {
	tr := &Trace{
		States:  make([][]logic.Val, 0, len(T)+1),
		Outputs: make([][]logic.Val, 0, len(T)),
	}
	if keepNodes {
		tr.Nodes = make([][]logic.Val, 0, len(T))
	}
	state := make([]logic.Val, c.NumFFs())
	for i, ff := range c.FFs {
		state[i] = f.Observed(ff.Q, ff.Init)
	}
	tr.States = append(tr.States, state)
	vals := make([]logic.Val, c.NumNodes())
	var in []logic.Val
	for _, pat := range T {
		for i, id := range c.Inputs {
			vals[id] = f.Observed(id, pat[i])
		}
		for i, ff := range c.FFs {
			vals[ff.Q] = f.Observed(ff.Q, state[i])
		}
		for _, gi := range c.Order {
			g := &c.Gates[gi]
			if v, ok := f.StuckNode(g.Out); ok {
				vals[g.Out] = v
				continue
			}
			in = in[:0]
			for k, id := range g.In {
				in = append(in, f.SeenBy(gi, int32(k), id, vals[id]))
			}
			vals[g.Out] = logic.Eval(g.Op, in)
		}
		out := make([]logic.Val, c.NumOutputs())
		for j, id := range c.Outputs {
			out[j] = vals[id]
		}
		tr.Outputs = append(tr.Outputs, out)
		if keepNodes {
			frame := make([]logic.Val, len(vals))
			copy(frame, vals)
			tr.Nodes = append(tr.Nodes, frame)
		}
		next := make([]logic.Val, c.NumFFs())
		for i, ff := range c.FFs {
			next[i] = f.Observed(ff.Q, vals[ff.D])
		}
		state = next
		tr.States = append(tr.States, state)
	}
	return tr
}

// equalRows compares two [][]logic.Val traces element-wise.
func equalRows(a, b [][]logic.Val) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

// TestRunMatchesGolden cross-checks the compiled-IR simulator — both the
// divergence-driven delta path (RunFault against a fault-free baseline)
// and the full-pass Run — against the golden pointer-model simulator:
// states, outputs and node streams must be byte-identical, and RunFault
// must report exactly the golden trace's first detection.
func TestRunMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 2+rng.Intn(3), 1+rng.Intn(4), 8+rng.Intn(32))
		if err != nil {
			continue
		}
		T := randomSequence(rng, c.NumInputs(), 5)
		sim := New(c)
		good, err := sim.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if g := goldenRun(c, T, &fault.Fault{Node: netlist.NoNode, Gate: netlist.NoGate}, true); !equalRows(good.Outputs, g.Outputs) ||
			!equalRows(good.States, g.States) || !equalRows(good.Nodes, g.Nodes) {
			t.Fatalf("trial %d: fault-free trace differs from golden", trial)
		}
		faults := fault.List(c)
		for i := range faults {
			f := faults[i]
			want := goldenRun(c, T, &f, true)

			bad, err := sim.Run(T, &f, true)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(bad.Outputs, want.Outputs) || !equalRows(bad.States, want.States) ||
				!equalRows(bad.Nodes, want.Nodes) {
				t.Fatalf("trial %d, %s: Run trace differs from golden", trial, f.Name(c))
			}

			tr, at, detected, err := sim.RunFault(T, good, f, true)
			if err != nil {
				t.Fatal(err)
			}
			wantAt, wantDet := FirstDetection(good, want)
			if detected != wantDet || (detected && at != wantAt) {
				t.Fatalf("trial %d, %s: RunFault detection (%v,%+v), golden (%v,%+v)",
					trial, f.Name(c), detected, at, wantDet, wantAt)
			}
			// RunFault drops the fault at first detection; the prefix up to
			// and including the detection frame must match the golden trace.
			n := len(tr.Outputs)
			if !equalRows(tr.Outputs, want.Outputs[:n]) || !equalRows(tr.States, want.States[:n+1]) ||
				!equalRows(tr.Nodes, want.Nodes[:n]) {
				t.Fatalf("trial %d, %s: RunFault trace prefix differs from golden", trial, f.Name(c))
			}
		}
	}
}
