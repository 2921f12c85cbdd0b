package cir_test

import (
	"math/rand"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
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

// TestEventFullSchedShape checks the whole-circuit schedule built at
// Compile: ascending occupied levels, bucket capacities equal to the
// per-level gate counts, and total capacity equal to the gate count.
func TestEventFullSchedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		c, err := randomCircuit(rng, 3, 4, 10+rng.Intn(30))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		s := cc.FullSched()
		if s.NumGates() != cc.NumGates() {
			t.Fatalf("trial %d: FullSched capacity %d, circuit has %d gates", trial, s.NumGates(), cc.NumGates())
		}
		if len(s.Off) != len(s.Levels)+1 || s.Off[0] != 0 {
			t.Fatalf("trial %d: malformed offsets %v for levels %v", trial, s.Off, s.Levels)
		}
		for k, l := range s.Levels {
			if k > 0 && l <= s.Levels[k-1] {
				t.Fatalf("trial %d: levels not ascending: %v", trial, s.Levels)
			}
			want := cc.LevelStart[l+1] - cc.LevelStart[l]
			if got := s.Off[k+1] - s.Off[k]; got != want {
				t.Fatalf("trial %d: level %d bucket capacity %d, want %d", trial, l, got, want)
			}
		}
	}
}

// TestEventEvalMatchesEvalFrame is the evaluator-level property test:
// seeding an EventEval with the input/state lines that changed between
// two frames and draining must reproduce a dense re-evaluation exactly,
// with Touched listing precisely the divergent nodes. Several frames
// run on one evaluator so the epoch machinery (no per-frame clears) is
// exercised across frames with different seed sets.
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

			eev.BeginFrame(base, cc.FullSched())
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

// TestEventEvalSchedRebind drains one evaluator alternately against the
// schedule of a fault's cone gates and the full schedule: bindSched must
// resize the bucket storage and refresh the level map without leaking
// state from the previous schedule.
func TestEventEvalSchedRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 15; trial++ {
		c, err := randomCircuit(rng, 3, 4, 12+rng.Intn(24))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		ev := cc.NewEvaluator()
		eev := cc.NewEventEval()
		faults := fault.List(c)
		f := faults[rng.Intn(len(faults))]
		sched := cc.BuildSched(cc.ConeOf(&f).Gates)
		if sched.NumGates() == 0 {
			continue
		}

		pi := randomVals(rng, cc.NumInputs())
		ps := randomVals(rng, cc.NumFFs())
		base := make([]logic.Val, cc.NumNodes())
		ev.EvalFrame(pi, ps, &cir.NoFault, base)

		for frame := 0; frame < 4; frame++ {
			// Odd frames: full-schedule perturbation of one input.
			// Even frames: cone-schedule faulty frame against the same base.
			if frame%2 == 1 {
				pi2 := append([]logic.Val(nil), pi...)
				k := rng.Intn(len(pi2))
				pi2[k] = logic.Val(rng.Intn(3))
				want := make([]logic.Val, cc.NumNodes())
				ev.EvalFrame(pi2, ps, &cir.NoFault, want)
				eev.BeginFrame(base, cc.FullSched())
				eev.Set(cc.Inputs[k], pi2[k])
				eev.Drain(&cir.NoFault)
				for n := range want {
					if got := eev.Read(netlist.NodeID(n)); got != want[n] {
						t.Fatalf("trial %d frame %d (full): node %d event=%v dense=%v", trial, frame, n, got, want[n])
					}
				}
				continue
			}
			want := make([]logic.Val, cc.NumNodes())
			ev.EvalFrame(pi, ps, &f, want)
			eev.BeginFrame(base, sched)
			if f.IsStem() {
				if v, ok := f.StuckNode(f.Node); ok {
					eev.Set(f.Node, v)
				}
			} else {
				eev.Enqueue(f.Gate)
			}
			eev.Drain(&f)
			// Only cone nodes can diverge; the drain must reproduce the
			// dense faulty frame on every node.
			for n := range want {
				if got := eev.Read(netlist.NodeID(n)); got != want[n] {
					t.Fatalf("trial %d frame %d (cone, fault %s): node %s event=%v dense=%v",
						trial, frame, f.Name(c), c.NodeName(netlist.NodeID(n)), got, want[n])
				}
			}
		}
	}
}
