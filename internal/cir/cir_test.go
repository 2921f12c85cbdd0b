package cir_test

import (
	"fmt"
	"math/rand"
	"slices"
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
			if cc.Ops[gi] != g.Op || cc.GOut[gi] != g.Out || cc.Level[gi] != g.Level {
				t.Fatalf("gate %d: op/out/level mismatch", gi)
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
		// Level buckets must partition Order with matching levels.
		if len(cc.Order) != len(c.Order) {
			t.Fatalf("order length %d, want %d", len(cc.Order), len(c.Order))
		}
		seen := 0
		for l := int32(1); l <= cc.MaxLevel; l++ {
			for _, gi := range cc.Order[cc.LevelStart[l]:cc.LevelStart[l+1]] {
				if cc.Level[gi] != l {
					t.Fatalf("level bucket %d holds gate %d of level %d", l, gi, cc.Level[gi])
				}
				seen++
			}
		}
		if seen != len(cc.Order) {
			t.Fatalf("level buckets cover %d gates, order has %d", seen, len(cc.Order))
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

// bruteCone computes the sequential fanout closure of a fault site
// directly on the pointer-chasing netlist, as the reference for FillCone.
func bruteCone(c *netlist.Circuit, f fault.Fault) (gates map[netlist.GateID]bool, nodes map[netlist.NodeID]bool) {
	gates = make(map[netlist.GateID]bool)
	nodes = make(map[netlist.NodeID]bool)
	var stack []netlist.NodeID
	var addNode func(n netlist.NodeID)
	addNode = func(n netlist.NodeID) {
		if !nodes[n] {
			nodes[n] = true
			stack = append(stack, n)
		}
	}
	addGate := func(g netlist.GateID) {
		if !gates[g] {
			gates[g] = true
			addNode(c.Gates[g].Out)
		}
	}
	if f.IsStem() {
		addNode(f.Node)
	} else {
		addGate(f.Gate)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pin := range c.Nodes[n].Fanouts {
			addGate(pin.Gate)
		}
		if i := c.Nodes[n].DOf; i >= 0 {
			addNode(c.FFs[i].Q)
		}
	}
	return gates, nodes
}

// TestConeMatchesBruteForce checks FillCone's gate/FF/output sets and
// ordering invariants against the brute-force closure for every fault of
// random circuits.
func TestConeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		c, err := randomCircuit(rng, 2+rng.Intn(4), 1+rng.Intn(5), 8+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.Compile(c)
		co := cc.NewCone()
		for _, f := range fault.List(c) {
			cc.FillCone(&f, co)
			gates, nodes := bruteCone(c, f)
			if len(co.Gates) != len(gates) {
				t.Fatalf("%s: cone has %d gates, brute force %d", f.Name(c), len(co.Gates), len(gates))
			}
			for _, g := range co.Gates {
				if !gates[g] {
					t.Fatalf("%s: cone gate %d not in brute-force closure", f.Name(c), g)
				}
				if !co.InGate(g) {
					t.Fatalf("%s: InGate(%d) false for listed gate", f.Name(c), g)
				}
			}
			for n := range nodes {
				if !co.InNode(n) {
					t.Fatalf("%s: brute-force node %s not marked in cone", f.Name(c), c.NodeName(n))
				}
			}
			// FFs and Outs must be ascending (detection ordering depends
			// on Outs; Gates carries no order guarantee).
			for k := 1; k < len(co.FFs); k++ {
				if co.FFs[k-1] >= co.FFs[k] {
					t.Fatalf("%s: cone FFs not ascending", f.Name(c))
				}
			}
			for k := 1; k < len(co.Outs); k++ {
				if co.Outs[k-1] >= co.Outs[k] {
					t.Fatalf("%s: cone outputs not ascending", f.Name(c))
				}
			}
			// FF and output membership must match the node set exactly.
			wantFFs := 0
			for i, ff := range c.FFs {
				if nodes[ff.Q] {
					wantFFs++
					found := false
					for _, j := range co.FFs {
						if int(j) == i {
							found = true
						}
					}
					if !found {
						t.Fatalf("%s: flip-flop %d missing from cone FFs", f.Name(c), i)
					}
				}
			}
			if wantFFs != len(co.FFs) {
				t.Fatalf("%s: cone has %d FFs, want %d", f.Name(c), len(co.FFs), wantFFs)
			}
			wantOuts := 0
			for j, id := range c.Outputs {
				if nodes[id] {
					wantOuts++
					found := false
					for _, p := range co.Outs {
						if int(p) == j {
							found = true
						}
					}
					if !found {
						t.Fatalf("%s: output %d missing from cone outputs", f.Name(c), j)
					}
				}
			}
			if wantOuts != len(co.Outs) {
				t.Fatalf("%s: cone has %d outputs, want %d", f.Name(c), len(co.Outs), wantOuts)
			}
		}
		// NoFault yields an empty cone even after reuse.
		cc.FillCone(&cir.NoFault, co)
		if co.Size() != 0 || len(co.FFs) != 0 || len(co.Outs) != 0 {
			t.Fatalf("NoFault cone not empty: %d gates", co.Size())
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

// TestConeOfCache checks the per-site cone cache: repeated lookups
// return the identical shared snapshot, faults at one site (either
// polarity, any pin of one gate) share it, the lists match a
// FillCone-filled cone, sites with equal cones share one snapshot and
// sites with different cones do not, and NoFault maps to the empty
// cone.
func TestConeOfCache(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shared := 0
	for trial := 0; trial < 10; trial++ {
		c, err := randomCircuit(rng, 2+rng.Intn(4), 1+rng.Intn(5), 8+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.Compile(c)
		scratch := cc.NewCone()
		bySite := make(map[string]*cir.Cone)
		byContent := make(map[string]*cir.Cone)
		sites := make(map[*cir.Cone]map[string]bool)
		for _, f := range fault.List(c) {
			co := cc.ConeOf(&f)
			if co2 := cc.ConeOf(&f); co2 != co {
				t.Fatalf("%s: repeated ConeOf returned distinct cones", f.Name(c))
			}
			var site string
			if f.IsStem() {
				site = "n" + c.NodeName(f.Node)
			} else {
				site = fmt.Sprintf("g%d", f.Gate)
			}
			if prev, ok := bySite[site]; ok && prev != co {
				t.Fatalf("%s: site %s got a distinct cone per fault", f.Name(c), site)
			}
			bySite[site] = co
			cc.FillCone(&f, scratch)
			if len(co.Gates) != len(scratch.Gates) ||
				!slices.Equal(co.FFs, scratch.FFs) ||
				!slices.Equal(co.Outs, scratch.Outs) {
				t.Fatalf("%s: cached cone differs from FillCone", f.Name(c))
			}
			for _, g := range co.Gates {
				if !scratch.InGate(g) {
					t.Fatalf("%s: cached cone gate %d not in FillCone set", f.Name(c), g)
				}
			}
			gates := slices.Clone(co.Gates)
			slices.Sort(gates)
			key := fmt.Sprint(gates, co.FFs, co.Outs)
			if prev, ok := byContent[key]; ok && prev != co {
				t.Fatalf("%s: equal cones at two sites are distinct snapshots", f.Name(c))
			}
			byContent[key] = co
			if sites[co] == nil {
				sites[co] = make(map[string]bool)
			}
			sites[co][site] = true
		}
		if len(byContent) != len(sites) {
			t.Fatalf("%d distinct cone contents in %d snapshots", len(byContent), len(sites))
		}
		for _, ss := range sites {
			if len(ss) > 1 {
				shared++
			}
		}
		if co := cc.ConeOf(&cir.NoFault); co.Size() != 0 || len(co.FFs) != 0 || len(co.Outs) != 0 {
			t.Fatalf("NoFault ConeOf not empty: %d gates", co.Size())
		}
	}
	if shared == 0 {
		t.Fatal("no snapshot was shared by two sites")
	}
}
