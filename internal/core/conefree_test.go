package core

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// TestRunParallelInternsNoCones checks that a whole-list run computes no
// active cone: step 0 follows the fault's divergence, so nothing in the
// pipeline asks the compiled circuit for a cone snapshot. The run uses
// a freshly compiled circuit with metrics on, and the compiled
// circuit's accounted size (which counts every interned cone snapshot)
// must not change across the run once its lazily built position view
// exists. A single ConeOf lookup afterwards must grow it, so the check
// sees a cone when one is made.
func TestRunParallelInternsNoCones(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 64, 4)
	faults := fault.CollapsedList(c)
	cc := cir.Compile(c)
	cc.Positions()
	before := cc.MemSize()
	sim, err := NewSimulatorWarm(c, T, DefaultConfig(), Warm{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunParallel(faults, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.MOTFaults == 0 || res.Stages.Sim.EventFrames == 0 {
		t.Fatalf("no fault reached step 0 (mot_faults %d, event frames %d)",
			res.Stages.MOTFaults, res.Stages.Sim.EventFrames)
	}
	if after := cc.MemSize(); after != before {
		t.Fatalf("compiled circuit grew from %d to %d bytes during the run: a cone was interned", before, after)
	}
	cc.ConeOf(&faults[0])
	if cc.MemSize() == before {
		t.Fatal("ConeOf left MemSize unchanged: the check cannot see an interned cone")
	}
}
