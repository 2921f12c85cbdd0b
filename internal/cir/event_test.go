package cir_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cir"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestEventEvalOpLUTMatchesLogicEval pins the packed base-3 lookup
// tables behind EvalOp to the semantics home: every operator over every
// input combination at arities 1-4 (the LUT widths) and 5 (the
// logic.Eval fallback) must agree with logic.Eval — in particular the
// base-3 index arithmetic must match logic.Eval's argument order.
func TestEventEvalOpLUTMatchesLogicEval(t *testing.T) {
	vals := []logic.Val{logic.Zero, logic.One, logic.X}
	for op := logic.Buf; op <= logic.Const1; op++ {
		for n := 1; n <= 5; n++ {
			combos := 1
			for i := 0; i < n; i++ {
				combos *= len(vals)
			}
			in := make([]logic.Val, n)
			for k := 0; k < combos; k++ {
				rem := k
				for j := range in {
					in[j] = vals[rem%len(vals)]
					rem /= len(vals)
				}
				if got, want := cir.EvalOp(op, in), logic.Eval(op, in); got != want {
					t.Fatalf("EvalOp(%v, %v) = %v, logic.Eval = %v", op, in, got, want)
				}
			}
		}
	}
}

// TestEventFullSchedShape checks the whole-circuit schedule every event
// drain walks: cc.Order lists each gate exactly once, and the position
// view built at Compile satisfies the position-order invariant, so an
// ascending drain evaluates every gate after all of its writers.
func TestEventFullSchedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		c, err := randomCircuit(rng, 3, 4, 10+rng.Intn(30))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		if len(cc.Order) != cc.NumGates() {
			t.Fatalf("trial %d: schedule holds %d gates, circuit has %d", trial, len(cc.Order), cc.NumGates())
		}
		seen := make([]bool, cc.NumGates())
		for p, gi := range cc.Order {
			if seen[gi] {
				t.Fatalf("trial %d: gate %d scheduled twice (again at position %d)", trial, gi, p)
			}
			seen[gi] = true
		}
		checkPositions(t, cc)
	}
}

// TestEventEvalMatchesEvalFrame is the evaluator-level property test:
// seeding an EventEval with the input/state lines that changed between
// two frames and draining must reproduce a dense re-evaluation exactly,
// with Touched listing precisely the divergent nodes. Several frames
// run on one evaluator so the epoch machinery (no per-frame clears) is
// exercised across frames with different seed sets. After the first
// frame the epoch jumps to just short of the uint32 wrap, so the third
// frame reuses the first frame's epoch: values the first frame stamped
// must not leak into it.
func TestEventEvalMatchesEvalFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 3, 4, 10+rng.Intn(30))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		ev := cc.NewEvaluator()
		eev := cc.NewEventEval()

		pi := randomVals(rng, cc.NumInputs())
		ps := randomVals(rng, cc.NumFFs())
		base := make([]logic.Val, cc.NumNodes())
		ev.EvalFrame(pi, ps, &cir.NoFault, base)

		for frame := 0; frame < 6; frame++ {
			if frame == 1 {
				eev.Overlay().SetEpoch(math.MaxUint32 - 1)
			}
			pi2 := append([]logic.Val(nil), pi...)
			ps2 := append([]logic.Val(nil), ps...)
			for i := range pi2 {
				if rng.Intn(3) == 0 {
					pi2[i] = logic.Val(rng.Intn(3))
				}
			}
			for i := range ps2 {
				if rng.Intn(3) == 0 {
					ps2[i] = logic.Val(rng.Intn(3))
				}
			}
			want := make([]logic.Val, cc.NumNodes())
			ev.EvalFrame(pi2, ps2, &cir.NoFault, want)

			eev.BeginFrame(base)
			for i, id := range cc.Inputs {
				eev.Set(id, pi2[i])
			}
			for i, q := range cc.FFQ {
				eev.Set(q, ps2[i])
			}
			eev.Drain(&cir.NoFault)

			for n := 0; n < cc.NumNodes(); n++ {
				if got := eev.Read(netlist.NodeID(n)); got != want[n] {
					t.Fatalf("trial %d frame %d: node %s event=%v dense=%v",
						trial, frame, c.NodeName(netlist.NodeID(n)), got, want[n])
				}
			}
			got := append([]logic.Val(nil), base...)
			eev.MaterializeInto(got)
			for n := range want {
				if got[n] != want[n] {
					t.Fatalf("trial %d frame %d: materialized node %d = %v, want %v", trial, frame, n, got[n], want[n])
				}
			}
			seen := make(map[netlist.NodeID]bool)
			for _, n := range eev.Touched() {
				if seen[n] {
					t.Fatalf("trial %d frame %d: node %d touched twice", trial, frame, n)
				}
				seen[n] = true
				if want[n] == base[n] {
					t.Fatalf("trial %d frame %d: node %d touched but not divergent", trial, frame, n)
				}
			}
			for n := range want {
				if want[n] != base[n] && !seen[netlist.NodeID(n)] {
					t.Fatalf("trial %d frame %d: divergent node %d missing from Touched", trial, frame, n)
				}
			}
		}
	}
}

// TestOverlayEpochWrap drives the shared overlay across the uint32
// epoch wrap: a stamp written before the wrap, at the last epoch or at
// an epoch the restarted count reaches again, must not read as live
// after it. It also drains the schedule both ways and checks that the
// pending range is empty afterwards.
func TestOverlayEpochWrap(t *testing.T) {
	c, err := randomCircuit(rand.New(rand.NewSource(67)), 3, 4, 150)
	if err != nil {
		t.Fatal(err)
	}
	cc := cir.Compile(c)
	o := cc.NewOverlay()
	a, b := netlist.NodeID(1), netlist.NodeID(2)
	o.SetEpoch(0)
	o.Begin() // epoch 1, the first epoch after a wrap
	if !o.Mark(a) || o.Mark(a) || !o.Live(a) {
		t.Fatal("first mark of a node not reported once, or not live")
	}
	o.SetEpoch(math.MaxUint32 - 1)
	o.Begin() // epoch MaxUint32
	if o.Live(a) || len(o.Touched()) != 0 {
		t.Fatal("a new frame kept a live node or touched list")
	}
	o.Mark(b)
	o.Begin() // wraps to epoch 1
	if o.Live(a) || o.Live(b) {
		t.Fatalf("stamp from before the wrap reads live after it (a %v, b %v)", o.Live(a), o.Live(b))
	}

	n := cc.NumGates()
	for _, ascending := range []bool{true, false} {
		pop, want := o.Next, []int{0, 63, 64, n / 2, n / 2, n - 1}
		if !ascending {
			pop, want = o.Last, []int{n - 1, n / 2, n / 2, 64, 63, 0}
		}
		for _, p := range []int{n - 1, 0, n / 2, 63, 64, n / 2} {
			o.Push(int32(p))
		}
		var got []int
		for p := pop(); p >= 0; p = pop() {
			if p == n/2 && !slices.Contains(got, p) {
				o.Push(int32(p)) // a push during the drain is drained too
			}
			got = append(got, p)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ascending %v: drained %v, want %v", ascending, got, want)
		}
		if lo, hi := o.Range(); lo <= hi {
			t.Fatalf("ascending %v: pending range [%d, %d] not empty after a drain", ascending, lo, hi)
		}
	}
}
