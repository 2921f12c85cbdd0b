package implic

import (
	"math/rand"
	"testing"

	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// laneCircuits are the circuits FuzzImplyLanes draws from: every one
// has at most 16 flip-flops.
var laneCircuits = func() []*netlist.Circuit {
	cs := []*netlist.Circuit{circuits.S27(), circuits.Fig4(), circuits.Intro(), circuits.Table1()}
	for _, name := range []string{"sg208", "sg298", "sg344", "sg420"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			panic(err)
		}
		cs = append(cs, e.Build())
	}
	return cs
}()

// randVal draws 0, 1 or X, X with probability xPct percent.
func randVal(rng *rand.Rand, xPct int) logic.Val {
	if rng.Intn(100) < xPct {
		return logic.X
	}
	return logic.Val(rng.Intn(2))
}

// laneSeed is one FuzzImplyLanes case.
type laneSeed struct {
	seed          int64
	circ          uint8
	faultIdx      uint16
	shape, rounds uint8
}

// laneSeeds is FuzzImplyLanes' seed corpus; the rounds input cycles
// through 1 to 8.
func laneSeeds() []laneSeed {
	var ss []laneSeed
	for seed := int64(0); seed < 64; seed++ {
		ss = append(ss, laneSeed{seed, uint8(seed), uint16(seed * 37), uint8(seed * 5), uint8(seed)})
	}
	return ss
}

// FuzzImplyLanes checks the lane kernel against the serial frame, lane
// by lane. A case draws a circuit, a fault of its uncollapsed list, a
// base frame simulated by seqsim under that fault from random
// three-valued inputs and present state, and a round bound of 1 to 8.
// The pass asserts both values of every flip-flop, the list repeated to
// fill one to four words so the same assertion sits in several words.
// Each lane must agree with AssignNextState + ImplyFixpoint(rounds)
// (ImplyTwoPass against Imply at one round) on the same assertion: the
// conflict verdict, and on lanes without conflict every node value,
// hence every output, NextState and PresentState.
func FuzzImplyLanes(f *testing.F) {
	for _, s := range laneSeeds() {
		f.Add(s.seed, s.circ, s.faultIdx, s.shape, s.rounds)
	}
	f.Fuzz(func(t *testing.T, seed int64, circ uint8, faultIdx uint16, shape, rounds uint8) {
		checkImplyLanes(t, laneSeed{seed, circ, faultIdx, shape, rounds})
	})
}

// TestImplyLanesSettleApart asserts that FuzzImplyLanes' seed corpus
// holds fixpoint passes whose lanes settle at different rounds, so the
// fuzz target checks that a lane left settled is not disturbed by the
// later rounds of the others.
func TestImplyLanesSettleApart(t *testing.T) {
	apart := 0
	for _, s := range laneSeeds() {
		if checkImplyLanes(t, s) {
			apart++
		}
	}
	t.Logf("%d of %d seed passes have lanes settling at different rounds", apart, len(laneSeeds()))
	if apart == 0 {
		t.Fatal("no seed pass has lanes settling at different rounds")
	}
}

// checkImplyLanes runs one FuzzImplyLanes case and reports whether
// its lanes without conflict took different numbers of value-gaining
// rounds on the serial frame, some lane more than one.
func checkImplyLanes(t *testing.T, s laneSeed) bool {
	t.Helper()
	c := laneCircuits[int(s.circ)%len(laneCircuits)]
	cc := cir.For(c)
	faults := fault.List(c)
	flt := faults[int(s.faultIdx)%len(faults)]
	rng := rand.New(rand.NewSource(s.seed))
	rounds := 1 + int(s.rounds)%8
	xPct := []int{10, 40, 80, 100}[s.shape&3]
	pi := make([]logic.Val, c.NumInputs())
	for i := range pi {
		pi[i] = randVal(rng, xPct/2)
	}
	ps := make([]logic.Val, c.NumFFs())
	for i := range ps {
		ps[i] = randVal(rng, xPct)
	}
	base := make([]logic.Val, c.NumNodes())
	seqsim.EvalFrame(c, pi, ps, &flt, base)

	type assertion struct {
		ff int
		v  logic.Val
	}
	var as []assertion
	reps := 1 + int(s.shape>>2)%8
	for r := 0; r < reps && len(as)+2*c.NumFFs() <= MaxLanes; r++ {
		for i := 0; i < c.NumFFs(); i++ {
			as = append(as, assertion{i, logic.Zero}, assertion{i, logic.One})
		}
	}
	lf := NewLaneFrame(cc)
	// A first pass on another assertion set leaves stale overlay
	// entries the real pass must not read.
	lf.Begin(&flt, base, 1)
	lf.AssertNextState(rng.Intn(c.NumFFs()), 0, logic.Val(rng.Intn(2)))
	lf.ImplyFixpoint(rounds)

	lf.Begin(&flt, base, len(as))
	for l, a := range as {
		lf.AssertNextState(a.ff, l, a.v)
	}
	if rounds == 1 {
		lf.Imply()
	} else {
		lf.ImplyFixpoint(rounds)
	}
	conf := lf.Conflicts()

	fr := NewCompiled(cc, &flt, base)
	gains, most := map[int]bool{}, 0
	for l, a := range as {
		mark := fr.Mark()
		ok := fr.AssignNextState(a.ff, a.v)
		switch {
		case !ok:
		case rounds == 1:
			ok = fr.ImplyTwoPass()
		default:
			ok = fr.ImplyFixpoint(rounds)
		}
		lane := uint(l)
		if laneConf := conf[l>>6]>>(l&63)&1 != 0; laneConf == ok {
			t.Fatalf("%s, fault %s, %d rounds, lane %d (Y%d=%v): lane conflict %v, serial conflict %v",
				c.Name, flt.Name(c), rounds, l, a.ff, a.v, laneConf, !ok)
		}
		if ok {
			for n := range fr.Values() {
				id := netlist.NodeID(n)
				if got, want := lf.Value(id).Lane(lane), fr.Value(id); got != want {
					t.Fatalf("%s, fault %s, %d rounds, lane %d (Y%d=%v): node %s = %v, serial %v",
						c.Name, flt.Name(c), rounds, l, a.ff, a.v, c.NodeName(id), got, want)
				}
			}
			for j := 0; j < c.NumOutputs(); j++ {
				if got, want := lf.Output(j).Lane(lane), fr.Output(j); got != want {
					t.Fatalf("%s, fault %s, lane %d: output %d = %v, serial %v", c.Name, flt.Name(c), l, j, got, want)
				}
			}
			for i := 0; i < c.NumFFs(); i++ {
				if got, want := lf.NextState(i).Lane(lane), fr.NextState(i); got != want {
					t.Fatalf("%s, fault %s, lane %d: next state %d = %v, serial %v", c.Name, flt.Name(c), l, i, got, want)
				}
				if got, want := lf.PresentState(i).Lane(lane), fr.PresentState(i); got != want {
					t.Fatalf("%s, fault %s, lane %d: present state %d = %v, serial %v", c.Name, flt.Name(c), l, i, got, want)
				}
			}
			g := gainRounds(fr, a.ff, a.v, rounds, mark)
			gains[g], most = true, max(most, g)
		}
		fr.UndoTo(mark)
	}
	return len(gains) > 1 && most > 1
}

// gainRounds returns how many of up to rounds single-round implications
// gain a value after asserting Y_ff = v on fr rolled back to mark. One
// ImplyFixpoint(1) call from a fresh cursor is one more round.
func gainRounds(fr *Frame, ff int, v logic.Val, rounds, mark int) int {
	fr.UndoTo(mark)
	fr.AssignNextState(ff, v)
	for r := 0; r < rounds; r++ {
		before := len(fr.changed)
		fr.ImplyFixpoint(1)
		if len(fr.changed) == before {
			return r
		}
	}
	return rounds
}
