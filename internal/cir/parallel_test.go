package cir_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
)

// TestConeParallelCrossCheck shares one compiled circuit across many
// goroutines, each with its own Evaluator and Cone, and cross-checks
// their frame values and cone contents against a serial pass. Run under
// -race it also proves a CC is safe for concurrent read-only use.
func TestConeParallelCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c, err := randomCircuit(rng, 4, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	cc := cir.For(c)
	faults := fault.List(c)
	pi := randomVals(rng, c.NumInputs())
	ps := randomVals(rng, c.NumFFs())

	// Serial reference pass.
	type ref struct {
		vals  []logic.Val
		gates int
		ffs   int
		outs  int
	}
	ev := cc.NewEvaluator()
	co := cc.NewCone()
	want := make([]ref, len(faults))
	for i := range faults {
		vals := make([]logic.Val, cc.NumNodes())
		ev.EvalFrame(pi, ps, &faults[i], vals)
		cc.FillCone(&faults[i], co)
		want[i] = ref{vals: vals, gates: len(co.Gates), ffs: len(co.FFs), outs: len(co.Outs)}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := cc.NewEvaluator()
			co := cc.NewCone()
			vals := make([]logic.Val, cc.NumNodes())
			// Stagger start points so workers touch different faults at
			// the same instant.
			for k := 0; k < len(faults); k++ {
				i := (k + w*7) % len(faults)
				ev.EvalFrame(pi, ps, &faults[i], vals)
				for id := range vals {
					if vals[id] != want[i].vals[id] {
						t.Errorf("worker %d, %s: node %d = %v, serial %v",
							w, faults[i].Name(c), id, vals[id], want[i].vals[id])
						return
					}
				}
				cc.FillCone(&faults[i], co)
				if len(co.Gates) != want[i].gates || len(co.FFs) != want[i].ffs || len(co.Outs) != want[i].outs {
					t.Errorf("worker %d, %s: cone (%d,%d,%d), serial (%d,%d,%d)",
						w, faults[i].Name(c), len(co.Gates), len(co.FFs), len(co.Outs),
						want[i].gates, want[i].ffs, want[i].outs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPositionsParallel builds a fresh circuit's position view from many
// goroutines at once: every caller must get the same view, and it must
// list the gates in cc.Order with their fanin and the fanout CSR
// rewritten to positions. Run under -race it checks the first-use build.
func TestPositionsParallel(t *testing.T) {
	c, err := randomCircuit(rand.New(rand.NewSource(61)), 4, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	cc := cir.Compile(c)
	const n = 8
	got := make([]*cir.Positions, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = cc.Positions()
		}(g)
	}
	wg.Wait()
	pos := got[0]
	for g, p := range got {
		if p != pos {
			t.Fatalf("caller %d got a different view", g)
		}
	}
	for p, gi := range cc.Order {
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
		}
	}
	for k, gi := range cc.FanoutGate {
		if pos.Fanout[k] != cc.OrderPos[gi] {
			t.Fatalf("fanout %d: position %d, want %d", k, pos.Fanout[k], cc.OrderPos[gi])
		}
	}
}
