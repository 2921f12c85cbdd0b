package cir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// randomCircuit builds a random sequential circuit for property tests.
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
	for i := 0; i < 3 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

// randomVals fills a slice with uniform three-valued samples.
func randomVals(rng *rand.Rand, n int) []logic.Val {
	vals := []logic.Val{logic.Zero, logic.One, logic.X}
	out := make([]logic.Val, n)
	for i := range out {
		out[i] = vals[rng.Intn(len(vals))]
	}
	return out
}

// TestCompileMatchesNetlist cross-checks every compiled array against the
// pointer-chasing netlist model it flattens.
func TestCompileMatchesNetlist(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 2+rng.Intn(4), 1+rng.Intn(5), 8+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.Compile(c)
		if cc.NumGates() != c.NumGates() || cc.NumNodes() != c.NumNodes() ||
			cc.NumInputs() != c.NumInputs() || cc.NumOutputs() != c.NumOutputs() ||
			cc.NumFFs() != c.NumFFs() {
			t.Fatalf("counts: compiled (%d g, %d n, %d i, %d o, %d ff), netlist (%d g, %d n, %d i, %d o, %d ff)",
				cc.NumGates(), cc.NumNodes(), cc.NumInputs(), cc.NumOutputs(), cc.NumFFs(),
				c.NumGates(), c.NumNodes(), c.NumInputs(), c.NumOutputs(), c.NumFFs())
		}
		maxFanin := 0
		for gi := range c.Gates {
			g := &c.Gates[gi]
			id := netlist.GateID(gi)
			if cc.Ops[gi] != g.Op || cc.GOut[gi] != g.Out {
				t.Fatalf("gate %d: op/out mismatch", gi)
			}
			fanin := cc.FaninOf(id)
			if len(fanin) != len(g.In) {
				t.Fatalf("gate %d: fanin width %d, want %d", gi, len(fanin), len(g.In))
			}
			for k := range fanin {
				if fanin[k] != g.In[k] {
					t.Fatalf("gate %d pin %d: fanin %d, want %d", gi, k, fanin[k], g.In[k])
				}
			}
			if len(g.In) > maxFanin {
				maxFanin = len(g.In)
			}
		}
		if cc.MaxFanin != maxFanin {
			t.Fatalf("MaxFanin = %d, want %d", cc.MaxFanin, maxFanin)
		}
		for id := range c.Nodes {
			n := &c.Nodes[id]
			if cc.Driver[id] != n.Driver || cc.FFOf[id] != n.FF || cc.DOf[id] != n.DOf {
				t.Fatalf("node %d: role maps mismatch", id)
			}
			// CSR fanout must list exactly the netlist's reader pins.
			lo, hi := cc.FanoutStart[id], cc.FanoutStart[id+1]
			if int(hi-lo) != len(n.Fanouts) {
				t.Fatalf("node %d: %d fanout pins, want %d", id, hi-lo, len(n.Fanouts))
			}
			for k := lo; k < hi; k++ {
				pin := n.Fanouts[k-lo]
				if cc.FanoutGate[k] != pin.Gate || cc.FanoutPin[k] != pin.Input {
					t.Fatalf("node %d fanout %d: (%d,%d), want (%d,%d)",
						id, k-lo, cc.FanoutGate[k], cc.FanoutPin[k], pin.Gate, pin.Input)
				}
			}
		}
		for j, id := range c.Outputs {
			if cc.OutPos[id] != int32(j) {
				t.Fatalf("output %d: OutPos = %d", j, cc.OutPos[id])
			}
		}
		for i, ff := range c.FFs {
			if cc.FFQ[i] != ff.Q || cc.FFD[i] != ff.D || cc.FFInit[i] != ff.Init {
				t.Fatalf("ff %d: Q/D/Init mismatch", i)
			}
		}
		if len(cc.Order) != len(c.Order) {
			t.Fatalf("order length %d, want %d", len(cc.Order), len(c.Order))
		}
		checkPositions(t, cc)
	}
}

// checkPositions checks the invariant every event drain relies on:
// cc.Positions lists the gates of cc.Order with their fanin, each
// gate's fanin drivers sit at lower positions (so an ascending drain
// evaluates a gate after all of its writers), and the position fanout
// names each reader by its position.
func checkPositions(t *testing.T, cc *cir.CC) {
	t.Helper()
	pos := cc.Positions()
	if len(pos.Gates) != len(cc.Order) {
		t.Fatalf("%d position records, %d gates in order", len(pos.Gates), len(cc.Order))
	}
	for p, gi := range cc.Order {
		if cc.OrderPos[gi] != int32(p) {
			t.Fatalf("OrderPos[%d] = %d, want %d", gi, cc.OrderPos[gi], p)
		}
		r := pos.Gates[p]
		if r.Out != cc.GOut[gi] || r.Op != cc.Ops[gi] {
			t.Fatalf("position %d: record %+v, gate %d", p, r, gi)
		}
		in := cc.FaninOf(gi)
		if int(r.Hi-r.Lo) != len(in) {
			t.Fatalf("position %d: %d fanin, gate has %d", p, r.Hi-r.Lo, len(in))
		}
		for k, id := range in {
			if pos.Fanin[int(r.Lo)+k] != id {
				t.Fatalf("position %d pin %d: fanin %d, want %d", p, k, pos.Fanin[int(r.Lo)+k], id)
			}
			if d := cc.Driver[id]; d != netlist.NoGate && cc.OrderPos[d] >= int32(p) {
				t.Fatalf("position %d pin %d: driver at position %d", p, k, cc.OrderPos[d])
			}
		}
	}
	if len(pos.Fanout) != len(cc.FanoutGate) {
		t.Fatalf("%d position fanout entries, %d fanout pins", len(pos.Fanout), len(cc.FanoutGate))
	}
	for k, gi := range cc.FanoutGate {
		if pos.Fanout[k] != cc.OrderPos[gi] {
			t.Fatalf("fanout %d: position %d, want %d", k, pos.Fanout[k], cc.OrderPos[gi])
		}
	}
}

// goldenEvalFrame is an independent copy of the pre-refactor
// pointer-walking frame evaluator, kept here as the cross-check target
// for Evaluator.EvalFrame.
func goldenEvalFrame(c *netlist.Circuit, pi, ps []logic.Val, f *fault.Fault, vals []logic.Val) {
	for i, id := range c.Inputs {
		vals[id] = f.Observed(id, pi[i])
	}
	for i, ff := range c.FFs {
		vals[ff.Q] = f.Observed(ff.Q, ps[i])
	}
	var in []logic.Val
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
}

// TestEvalFrameMatchesGolden checks the compiled evaluator against the
// golden pointer-walking evaluator over random circuits, frames and the
// full fault list (plus the fault-free frame).
func TestEvalFrameMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 2+rng.Intn(4), 1+rng.Intn(5), 8+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.Compile(c)
		ev := cc.NewEvaluator()
		got := make([]logic.Val, c.NumNodes())
		want := make([]logic.Val, c.NumNodes())
		faults := fault.List(c)
		targets := make([]*fault.Fault, 0, len(faults)+1)
		targets = append(targets, nil)
		for i := range faults {
			targets = append(targets, &faults[i])
		}
		for _, f := range targets {
			pi := randomVals(rng, c.NumInputs())
			ps := randomVals(rng, c.NumFFs())
			ev.EvalFrame(pi, ps, f, got)
			gf := f
			if gf == nil {
				gf = &cir.NoFault
			}
			goldenEvalFrame(c, pi, ps, gf, want)
			for id := range got {
				if got[id] != want[id] {
					name := "fault-free"
					if f != nil {
						name = f.Name(c)
					}
					t.Fatalf("trial %d, %s: node %s = %v, golden %v",
						trial, name, c.NodeName(netlist.NodeID(id)), got[id], want[id])
				}
			}
		}
	}
}

// setLane writes value val into lane k of v.
func setLane(v *cir.VV, k uint, val logic.Val) {
	v.Zero &^= 1 << k
	v.One &^= 1 << k
	switch val {
	case logic.Zero:
		v.Zero |= 1 << k
	case logic.One:
		v.One |= 1 << k
	}
}

// TestEvalOpVVMatchesScalar packs every input combination of every
// operator into vector lanes and checks EvalOpVV lane-for-lane against
// the scalar EvalOp.
func TestEvalOpVVMatchesScalar(t *testing.T) {
	vals := []logic.Val{logic.Zero, logic.One, logic.X}
	arity := func(op logic.Op) []int {
		switch op {
		case logic.Const0, logic.Const1:
			return []int{1} // inputs ignored
		case logic.Buf, logic.Not:
			return []int{1}
		}
		return []int{2, 3}
	}
	for _, op := range []logic.Op{
		logic.Buf, logic.Not, logic.And, logic.Nand, logic.Or, logic.Nor,
		logic.Xor, logic.Xnor, logic.Const0, logic.Const1,
	} {
		for _, n := range arity(op) {
			combos := 1
			for i := 0; i < n; i++ {
				combos *= len(vals)
			}
			in := make([]cir.VV, n)
			scalar := make([][]logic.Val, combos) // scalar[k] is lane k's input row
			for k := 0; k < combos; k++ {
				row := make([]logic.Val, n)
				rem := k
				for j := 0; j < n; j++ {
					row[j] = vals[rem%len(vals)]
					rem /= len(vals)
					setLane(&in[j], uint(k), row[j])
				}
				scalar[k] = row
			}
			out := cir.EvalOpVV(op, in)
			for k := 0; k < combos; k++ {
				want := cir.EvalOp(op, scalar[k])
				if got := out.Lane(uint(k)); got != want {
					t.Errorf("%v%v lane %d: vector %v, scalar %v", op, scalar[k], k, got, want)
				}
			}
		}
	}
}

// TestForCache checks that For compiles once per circuit and returns the
// shared instance thereafter.
func TestForCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, err := randomCircuit(rng, 3, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	cc := cir.For(c)
	if cc2 := cir.For(c); cc2 != cc {
		t.Fatalf("For returned distinct instances %p, %p for one circuit", cc, cc2)
	}
	if cc.Net != c {
		t.Fatalf("compiled IR points at wrong netlist")
	}
}
