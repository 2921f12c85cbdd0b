package cir_test

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/logic"
)

// TestVV4Helpers checks the 256-lane broadcast/lane/set/not helpers on
// lanes in every one of the four words.
func TestVV4Helpers(t *testing.T) {
	for _, k := range []uint{0, 1, 63, 64, 127, 128, 200, 255} {
		for _, v := range []logic.Val{logic.Zero, logic.One, logic.X} {
			if got := cir.Broadcast4(v).Lane(k); got != v {
				t.Fatalf("Broadcast4(%v).Lane(%d) = %v", v, k, got)
			}
			var w cir.VV4
			w.SetLane(k, logic.One) // overwritten below: SetLane must clear first
			w.SetLane(k, v)
			if got := w.Lane(k); got != v {
				t.Fatalf("SetLane(%d, %v) read back %v", k, v, got)
			}
			if got := w.Not().Lane(k); got != cir.EvalOp(logic.Not, []logic.Val{v}) {
				t.Fatalf("Not of %v at lane %d = %v", v, k, got)
			}
		}
	}
	// Lanes not touched by SetLane stay X.
	var w cir.VV4
	w.SetLane(70, logic.One)
	if w.Lane(69) != logic.X || w.Lane(71) != logic.X || w.Lane(6) != logic.X {
		t.Fatal("SetLane leaked into neighbouring lanes")
	}
}
