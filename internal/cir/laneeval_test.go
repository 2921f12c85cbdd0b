package cir_test

import (
	"math/rand"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// denseVV4Frame evaluates every gate of the circuit over 256 lanes
// under fault f: the dense reference LaneEval must reproduce. Primary
// inputs broadcast pi, flip-flop Q nodes load q.
func denseVV4Frame(cc *cir.CC, pi []logic.Val, q []cir.VV4, f *fault.Fault) []cir.VV4 {
	vals := make([]cir.VV4, cc.NumNodes())
	for i, id := range cc.Inputs {
		vals[id] = cir.Broadcast4(f.Observed(id, pi[i]))
	}
	for i, id := range cc.FFQ {
		vals[id] = q[i]
		if v, ok := f.StuckNode(id); ok {
			vals[id] = cir.Broadcast4(v)
		}
	}
	stuck := cir.Broadcast4(f.Stuck)
	for _, gi := range cc.Order {
		out := cc.GOut[gi]
		if v, ok := f.StuckNode(out); ok {
			vals[out] = cir.Broadcast4(v)
			continue
		}
		lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
		in := make([]cir.VV4, 0, hi-lo)
		for k := lo; k < hi; k++ {
			id := cc.Fanin[k]
			if f.Node == id && (f.IsStem() || (f.Gate == gi && f.Pin == k-lo)) {
				in = append(in, stuck)
			} else {
				in = append(in, vals[id])
			}
		}
		vals[out] = cir.EvalOpVV4(cc.Ops[gi], in)
	}
	return vals
}

// TestLaneEvalMatchesDenseVV4 is the evaluator-level property test of
// the lane overlay: lanes that vary a scalar faulty frame on random
// region flip-flops, seeded into a LaneEval over that frame and
// drained, must reproduce a dense 256-lane evaluation of the whole
// circuit on every node and every active lane of the live words. Each
// evaluator runs several passes (different faults, regions and word
// counts) of several frames, so the epoch stamps, the schedule bitmap
// and the region rebinding are exercised across frames.
func TestLaneEvalMatchesDenseVV4(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		c, err := randomCircuit(rng, 3, 2+rng.Intn(4), 10+rng.Intn(40))
		if err != nil {
			continue
		}
		cc := cir.For(c)
		ev := cc.NewEvaluator()
		le := cc.NewLaneEval()
		reg := cc.NewRegion()
		faults := fault.List(c)

		for pass := 0; pass < 4; pass++ {
			f := cir.NoFault
			if pass > 0 {
				f = faults[rng.Intn(len(faults))]
			}
			var seeds []int32
			for j := 0; j < cc.NumFFs(); j++ {
				if rng.Intn(2) == 0 {
					seeds = append(seeds, int32(j))
				}
			}
			cc.FillRegion(&f, seeds, reg)
			nw := 1 + rng.Intn(4)
			le.BeginPass(reg, &f, nw)

			pi := randomVals(rng, cc.NumInputs())
			ps := randomVals(rng, cc.NumFFs())
			base := make([]logic.Val, cc.NumNodes())
			ev.EvalFrame(pi, ps, &f, base)

			for frame := 0; frame < 4; frame++ {
				// Frame 0 is clean (every lane carries the scalar state);
				// later frames vary random lanes of the region flip-flops.
				q := make([]cir.VV4, cc.NumFFs())
				for j := range q {
					q[j] = cir.Broadcast4(ps[j])
				}
				if frame > 0 {
					for _, j := range reg.QFFs {
						for k := uint(0); k < uint(nw*64); k++ {
							if rng.Intn(4) == 0 {
								q[j].SetLane(k, logic.Val(rng.Intn(3)))
							}
						}
					}
				}
				var active [4]uint64
				for w := 0; w < nw; w++ {
					active[w] = rng.Uint64()
				}

				le.BeginFrame(base, active)
				for _, j := range reg.QFFs {
					le.Seed(cc.FFQ[j], &q[j])
				}
				evals := le.Drain()
				if evals > len(reg.Gates) {
					t.Fatalf("trial %d pass %d frame %d: %d gate evals, region has %d gates",
						trial, pass, frame, evals, len(reg.Gates))
				}
				if frame == 0 && evals != 0 {
					t.Fatalf("trial %d pass %d: clean frame evaluated %d gates", trial, pass, evals)
				}

				want := denseVV4Frame(cc, pi, q, &f)
				for n := range want {
					got := le.Value(netlist.NodeID(n))
					for w := 0; w < nw; w++ {
						a := active[w]
						if got.One[w]&a != want[n].One[w]&a || got.Zero[w]&a != want[n].Zero[w]&a {
							t.Fatalf("trial %d pass %d frame %d (fault %s, nw %d): node %s word %d lane overlay %x/%x, dense %x/%x",
								trial, pass, frame, f.Name(c), nw, c.NodeName(netlist.NodeID(n)), w,
								got.One[w]&a, got.Zero[w]&a, want[n].One[w]&a, want[n].Zero[w]&a)
						}
					}
				}
			}
		}
	}
}
