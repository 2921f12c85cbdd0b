package cir_test

import (
	"math/rand"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// refiningLanes returns 64-lane flip-flop values that refine the
// scalar frame base, as LaneEval's contract requires: every flip-flop
// carries its baseline Q value on every lane, and with vary the seeded
// flip-flops whose Q node is X in base take random values (X included)
// on random lanes. A flip-flop binary in base, the stem fault's
// included, keeps its value.
func refiningLanes(rng *rand.Rand, cc *cir.CC, base []logic.Val, seeds []int, vary bool) []cir.VV {
	q := make([]cir.VV, cc.NumFFs())
	for j := range q {
		q[j] = cir.Broadcast(base[cc.FFQ[j]])
	}
	if !vary {
		return q
	}
	for _, j := range seeds {
		if base[cc.FFQ[j]] != logic.X {
			continue
		}
		for k := uint(0); k < 64; k++ {
			if rng.Intn(4) == 0 {
				setLane(&q[j], k, logic.Val(rng.Intn(3)))
			}
		}
	}
	return q
}

// faultName names f in c, NoFault included.
func faultName(c *netlist.Circuit, f fault.Fault) string {
	if f.Node == netlist.NoNode {
		return "none"
	}
	return f.Name(c)
}

// TestLaneEvalMatchesDense is the evaluator-level property test of the
// 64-lane overlay: lanes that refine a scalar faulty frame on a random
// subset of flip-flops (random lane values wherever the frame's Q node
// is X), seeded into a LaneEval over that frame and drained, must
// reproduce on every node and every active lane the scalar dense
// evaluation of the whole circuit from that lane's state, and Touched
// must list exactly the nodes that differ from the frame on an active
// lane. Each evaluator runs several passes (different faults and seed
// sets) of several frames, so the epoch stamps, the schedule bitmap and
// the touched list are exercised across frames.
func TestLaneEvalMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 3, 2+rng.Intn(4), 10+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		ev := cc.NewEvaluator()
		le := cc.NewLaneEval()
		faults := fault.List(c)
		dense := make([]logic.Val, cc.NumNodes())

		for pass := 0; pass < 4; pass++ {
			f := cir.NoFault
			if pass > 0 {
				f = faults[rng.Intn(len(faults))]
			}
			var seeds []int
			for j := 0; j < cc.NumFFs(); j++ {
				if rng.Intn(2) == 0 {
					seeds = append(seeds, j)
				}
			}
			le.BeginPass(&f)

			pi := randomVals(rng, cc.NumInputs())
			ps := randomVals(rng, cc.NumFFs())
			base := make([]logic.Val, cc.NumNodes())
			ev.EvalFrame(pi, ps, &f, base)

			for frame := 0; frame < 4; frame++ {
				// Frame 0 is clean (every lane carries the scalar state);
				// later frames vary random lanes of the seeded flip-flops.
				q := refiningLanes(rng, cc, base, seeds, frame > 0)
				active := rng.Uint64()

				le.BeginFrame(base, active)
				for _, j := range seeds {
					le.Seed(cc.FFQ[j], q[j])
				}
				evals := le.Drain()
				if evals > len(cc.Order) {
					t.Fatalf("trial %d pass %d frame %d: %d gate evals, circuit has %d gates",
						trial, pass, frame, evals, len(cc.Order))
				}
				if frame == 0 && evals != 0 {
					t.Fatalf("trial %d pass %d: clean frame evaluated %d gates", trial, pass, evals)
				}

				touched := make(map[netlist.NodeID]bool)
				for _, n := range le.Touched() {
					if touched[n] {
						t.Fatalf("trial %d pass %d frame %d: node %s touched twice",
							trial, pass, frame, c.NodeName(n))
					}
					touched[n] = true
				}
				diverges := make([]bool, cc.NumNodes())
				for k := uint(0); k < 64; k++ {
					if active>>k&1 == 0 {
						continue
					}
					lane := make([]logic.Val, cc.NumFFs())
					for j := range lane {
						lane[j] = q[j].Lane(k)
					}
					ev.EvalFrame(pi, lane, &f, dense)
					for n, want := range dense {
						id := netlist.NodeID(n)
						if got := le.Value(id).Lane(k); got != want {
							t.Fatalf("trial %d pass %d frame %d (fault %s): node %s lane %d overlay %v, dense %v",
								trial, pass, frame, faultName(c, f), c.NodeName(id), k, got, want)
						}
						if want != base[n] {
							diverges[n] = true
						}
					}
				}
				for n, d := range diverges {
					id := netlist.NodeID(n)
					if d != touched[id] {
						t.Fatalf("trial %d pass %d frame %d (fault %s): node %s diverges=%v, touched=%v",
							trial, pass, frame, faultName(c, f), c.NodeName(id), d, touched[id])
					}
				}
			}
		}
	}
}

// TestLaneEvalTouchesOnlyXBaseline checks the refinement contract from
// the other side: over random frames and faults (the stem fault's node
// holds its binary stuck value in the baseline), no node binary in the
// baseline is ever stored, so Touched lists only baseline-X nodes, and
// Drain folds at most one gate per baseline-X gate output.
func TestLaneEvalTouchesOnlyXBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		c, err := randomCircuit(rng, 3, 2+rng.Intn(6), 10+rng.Intn(60))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		ev := cc.NewEvaluator()
		le := cc.NewLaneEval()
		faults := fault.List(c)
		all := make([]int, cc.NumFFs())
		for j := range all {
			all[j] = j
		}
		base := make([]logic.Val, cc.NumNodes())
		for pass := 0; pass < 8; pass++ {
			f := faults[rng.Intn(len(faults))]
			le.BeginPass(&f)
			ev.EvalFrame(randomVals(rng, cc.NumInputs()), randomVals(rng, cc.NumFFs()), &f, base)
			xOuts := 0
			for _, g := range cc.Order {
				if base[cc.GOut[g]] == logic.X {
					xOuts++
				}
			}
			for frame := 0; frame < 4; frame++ {
				q := refiningLanes(rng, cc, base, all, true)
				le.BeginFrame(base, rng.Uint64())
				for j := range q {
					le.Seed(cc.FFQ[j], q[j])
				}
				if evals := le.Drain(); evals > xOuts {
					t.Fatalf("trial %d pass %d (fault %s): %d gate folds, only %d gate outputs are X in the baseline",
						trial, pass, faultName(c, f), evals, xOuts)
				}
				for _, n := range le.Touched() {
					if base[n] != logic.X {
						t.Fatalf("trial %d pass %d (fault %s): node %s touched, baseline %v",
							trial, pass, faultName(c, f), c.NodeName(n), base[n])
					}
				}
			}
		}
	}
}
