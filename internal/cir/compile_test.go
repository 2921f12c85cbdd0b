package cir

import (
	"testing"
	"unsafe"

	"repro/internal/circuits"
	"repro/internal/netlist"
)

// TestForBoundedCache checks the compile cache's LRU bound and Drop:
// a cached circuit returns the shared CC, Drop forces a recompile, and
// overflowing the capacity evicts rather than growing without bound.
func TestForBoundedCache(t *testing.T) {
	c := circuits.S27()
	cc := For(c)
	if For(c) != cc {
		t.Fatal("For did not return the cached CC")
	}
	Drop(c)
	cc2 := For(c)
	if cc2 == cc {
		t.Fatal("For returned the dropped CC")
	}
	if cc2.NumGates() != cc.NumGates() || cc2.NumNodes() != cc.NumNodes() {
		t.Fatal("recompiled CC differs structurally")
	}

	// Push forCacheCap fresh circuits through the cache; the early ones
	// must be evicted (a later For compiles anew) instead of pinned.
	first := circuits.S27()
	ccFirst := For(first)
	for i := 0; i < forCacheCap; i++ {
		For(circuits.S27())
	}
	if For(first) == ccFirst {
		t.Fatal("compile cache retained an entry past its capacity")
	}
}

// TestCCMemSizePositive checks that MemSize counts the position view,
// which Compile builds, and does not move when evaluators are created
// over the circuit.
func TestCCMemSizePositive(t *testing.T) {
	cc := Compile(circuits.S27())
	base := cc.MemSize()
	p := cc.Positions()
	view := int64(len(p.Gates))*int64(unsafe.Sizeof(GateRec{})) +
		int64(len(p.Fanin))*int64(unsafe.Sizeof(netlist.NodeID(0))) + int64(len(p.Fanout))*4
	if view <= 0 || base <= view {
		t.Fatalf("MemSize = %d, want more than the %d-byte position view", base, view)
	}
	cc.NewEventEval()
	cc.NewLaneEval()
	cc.NewOverlay()
	if got := cc.MemSize(); got != base {
		t.Fatalf("MemSize moved from %d to %d when evaluators were created", base, got)
	}
}
