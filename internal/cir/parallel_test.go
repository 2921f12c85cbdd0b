package cir_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestConeParallelCrossCheck shares one freshly compiled circuit across
// many goroutines, each with its own Evaluator and EventEval over the
// shared position view, and cross-checks every fault's faulty frame —
// dense, and event-driven from the fault site through its fanout cone —
// against a serial dense pass. Run under -race it also proves a CC is
// safe for concurrent read-only use.
func TestConeParallelCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c, err := randomCircuit(rng, 4, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	cc := cir.Compile(c)
	faults := fault.List(c)
	pi := randomVals(rng, c.NumInputs())
	ps := randomVals(rng, c.NumFFs())

	ev := cc.NewEvaluator()
	base := make([]logic.Val, cc.NumNodes())
	ev.EvalFrame(pi, ps, &cir.NoFault, base)
	want := make([][]logic.Val, len(faults))
	for i := range faults {
		want[i] = make([]logic.Val, cc.NumNodes())
		ev.EvalFrame(pi, ps, &faults[i], want[i])
	}

	const workers = 8
	pos := cc.Positions()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cc.Positions() != pos {
				t.Errorf("worker %d got a different position view", w)
				return
			}
			ev := cc.NewEvaluator()
			eev := cc.NewEventEval()
			vals := make([]logic.Val, cc.NumNodes())
			// Stagger start points so workers touch different faults at
			// the same instant.
			for k := 0; k < len(faults); k++ {
				i := (k + w*7) % len(faults)
				f := &faults[i]
				ev.EvalFrame(pi, ps, f, vals)
				eev.BeginFrame(base)
				for j, id := range cc.Inputs {
					eev.Set(id, f.Observed(id, pi[j]))
				}
				for j, q := range cc.FFQ {
					eev.Set(q, f.Observed(q, ps[j]))
				}
				if f.IsStem() {
					if v, ok := f.StuckNode(f.Node); ok {
						eev.Set(f.Node, v)
					}
				} else {
					eev.Enqueue(f.Gate)
				}
				eev.Drain(f)
				for id := range vals {
					if vals[id] != want[i][id] || eev.Read(netlist.NodeID(id)) != want[i][id] {
						t.Errorf("worker %d, %s: node %d dense %v event %v, serial %v",
							w, f.Name(c), id, vals[id], eev.Read(netlist.NodeID(id)), want[i][id])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPositionsParallel reads a freshly compiled circuit's position view
// from many goroutines at once: every caller must get the same view, and
// it must satisfy the position-order invariant.
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
	for g, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different view", g)
		}
	}
	checkPositions(t, cc)
}
