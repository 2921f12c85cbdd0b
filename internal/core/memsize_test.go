package core

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// TestRunParallelKeepsCCMemSize checks that a whole-list run leaves a
// freshly compiled circuit's accounted size unchanged: everything the
// kernels read (the position view included) exists after Compile, so a
// cache that charges MemSize at insert time charges the circuit in
// full. The run has metrics on and reaches step 0.
func TestRunParallelKeepsCCMemSize(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 64, 4)
	cc := cir.Compile(c)
	before := cc.MemSize()
	sim, err := NewSimulatorWarm(c, T, DefaultConfig(), Warm{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunParallel(fault.CollapsedList(c), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.MOTFaults == 0 || res.Stages.Sim.EventFrames == 0 {
		t.Fatalf("no fault reached step 0 (mot_faults %d, event frames %d)",
			res.Stages.MOTFaults, res.Stages.Sim.EventFrames)
	}
	if after := cc.MemSize(); after != before {
		t.Fatalf("compiled circuit grew from %d to %d bytes during the run", before, after)
	}
}
