package implic

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// framesEqual compares the externally observable state of two frames.
func framesEqual(t *testing.T, got, want *Frame, ctx string) {
	t.Helper()
	if got.Conflict() != want.Conflict() {
		t.Fatalf("%s: conflict = %v, want %v", ctx, got.Conflict(), want.Conflict())
	}
	for n := range want.vals {
		if got.vals[n] != want.vals[n] {
			t.Fatalf("%s: node %s = %v, want %v",
				ctx, got.cc.Net.NodeName(netlist.NodeID(n)), got.vals[n], want.vals[n])
		}
	}
}

// checkPristine asserts the frame's trail and worklist are empty and every
// inQ flag is down — the invariant Mark/UndoTo relies on.
func checkPristine(t *testing.T, fr *Frame, ctx string) {
	t.Helper()
	if len(fr.changed) != 0 {
		t.Fatalf("%s: trail has %d entries, want 0", ctx, len(fr.changed))
	}
	if len(fr.queue) != 0 {
		t.Fatalf("%s: worklist has %d entries, want 0", ctx, len(fr.queue))
	}
	for g, in := range fr.inQ {
		if in {
			t.Fatalf("%s: inQ[%d] still set", ctx, g)
		}
	}
}

// TestMarkUndoRoundTrip asserts that a single frame driven through many
// assign -> imply -> UndoTo rounds stays indistinguishable from a freshly
// allocated frame performing the same round, on random circuits with
// random assertion mixes (including conflicting ones).
func TestMarkUndoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nFF := 3 + rng.Intn(2)
		c, err := randomCircuit(rng, 2, nFF, 8+rng.Intn(14))
		if err != nil {
			continue
		}
		pi := make([]logic.Val, c.NumInputs())
		for i := range pi {
			pi[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		ps := make([]logic.Val, nFF)
		for i := range ps {
			ps[i] = logic.X
		}
		base := make([]logic.Val, c.NumNodes())
		seqsim.EvalFrame(c, pi, ps, nil, base)

		reused := New(c, nil, base)
		pristine := New(c, nil, base)
		for round := 0; round < 12; round++ {
			ffIdx := rng.Intn(nFF)
			alpha := logic.FromBool(rng.Intn(2) == 1)
			mark := reused.Mark()
			okReused := reused.AssignNextState(ffIdx, alpha) && reused.ImplyTwoPass()
			fresh := New(c, nil, base)
			okFresh := fresh.AssignNextState(ffIdx, alpha) && fresh.ImplyTwoPass()
			if okReused != okFresh {
				t.Fatalf("trial %d round %d: reused ok=%v, fresh ok=%v",
					trial, round, okReused, okFresh)
			}
			framesEqual(t, reused, fresh, "after imply")
			reused.UndoTo(mark)
			framesEqual(t, reused, pristine, "after undo")
			checkPristine(t, reused, "after undo")
		}
	}
}

// TestMarkUndoNested checks nested marks: implications layered on top of
// earlier implications roll back one layer at a time.
func TestMarkUndoNested(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	base := baseFrame(t, c, "1x", "x")
	fr := New(c, nil, base)
	q, _ := c.NodeByName("q")
	b, _ := c.NodeByName("b")

	m0 := fr.Mark()
	if !fr.Assign(q, logic.One) || !fr.ImplyTwoPass() {
		t.Fatal("layer 1 conflicted")
	}
	afterQ := make([]logic.Val, len(fr.vals))
	copy(afterQ, fr.vals)

	m1 := fr.Mark()
	if !fr.Assign(b, logic.Zero) || !fr.ImplyTwoPass() {
		t.Fatal("layer 2 conflicted")
	}
	fr.UndoTo(m1)
	for n := range afterQ {
		if fr.vals[n] != afterQ[n] {
			t.Fatalf("undo to m1: node %d = %v, want %v", n, fr.vals[n], afterQ[n])
		}
	}
	fr.UndoTo(m0)
	framesEqual(t, fr, New(c, nil, base), "undo to m0")
	checkPristine(t, fr, "undo to m0")
}

// TestUndoAfterConflict checks a conflicted frame is fully usable again
// after UndoTo, including the sparse worklist cleanup on the failure path.
func TestUndoAfterConflict(t *testing.T) {
	c := mustParse(t, "ao", andOrBench)
	// a=0 forces y=0; b=0 forces d=0: asserting d=1 conflicts inside the
	// backward closure (not just at the assignment).
	base := baseFrame(t, c, "00", "x")
	fr := New(c, nil, base)
	mark := fr.Mark()
	if fr.AssignNextState(0, logic.One) && fr.ImplyTwoPass() {
		t.Fatal("expected conflict")
	}
	fr.UndoTo(mark)
	if fr.Conflict() {
		t.Fatal("conflict not cleared by undo")
	}
	framesEqual(t, fr, New(c, nil, base), "after undo")
	checkPristine(t, fr, "after undo")
	// The same frame must now run a consistent assertion cleanly.
	if !fr.AssignNextState(0, logic.Zero) || !fr.ImplyTwoPass() {
		t.Fatal("frame unusable after conflict undo")
	}
	ref := New(c, nil, base)
	ref.AssignNextState(0, logic.Zero)
	ref.ImplyTwoPass()
	framesEqual(t, fr, ref, "reuse after conflict")
}
