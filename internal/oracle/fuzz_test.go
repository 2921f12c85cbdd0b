package oracle

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// FuzzOracleSoundness is the differential check of the whole MOT
// pipeline against the exhaustive oracle. Each input picks a generated
// circuit (circuits.GenParams: 1-3 inputs and outputs, at most 6
// flip-flops, some of them free, 8-40 gates) and a random sequence of
// at most 8 patterns, and runs the collapsed fault list through
// core.RunParallel with DefaultConfig on 2 workers, so the
// bit-parallel prescreen lanes classify faults too. Conventional
// detection must match the oracle exactly, and every MOT detection
// must be one the restricted-MOT oracle confirms. Faults the oracle
// finds restricted-MOT detectable that the procedure leaves
// undetected are its known completeness gap (the N_STATES budget and
// the pair heuristics); the gap is logged, not failed.
func FuzzOracleSoundness(f *testing.F) {
	// The shapes TestSimulatorNeverExceedsOracle draws: 2 inputs,
	// 2 outputs, 4 flip-flops, 10-21 gates, 6 patterns. The seeds are
	// ones where the procedure finds MOT detections.
	for _, in := range []struct {
		gates uint8
		seed  int64
	}{{10, 3}, {14, 3}, {14, 9}, {21, 7}, {21, 14}} {
		f.Add(uint8(2), uint8(2), uint8(4), uint8(0), in.gates-8, uint8(6), in.seed)
	}
	// Free flip-flops that never initialize, at the size limits.
	f.Add(uint8(1), uint8(3), uint8(6), uint8(2), uint8(32), uint8(8), int64(7))
	f.Fuzz(func(t *testing.T, inputs, outputs, ffs, free, gates, length uint8, seed int64) {
		p := circuits.GenParams{
			Name:    "fuzz",
			Inputs:  1 + int(inputs%3),
			Outputs: 1 + int(outputs%3),
			FFs:     int(ffs % 7),
			Gates:   8 + int(gates%33),
			Seed:    seed,
		}
		p.FreeFFs = int(free) % (p.FFs + 1)
		p.Gates = max(p.Gates, p.FFs-p.FreeFFs+p.Outputs)
		c, err := circuits.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		T := tgen.Random(c.NumInputs(), 1+int(length%8), seed)
		o, err := New(c, T)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedList(c)
		sim, err := core.NewSimulator(c, T, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunParallel(faults, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var restricted, gap int
		for k, fl := range faults {
			v, err := o.Decide(fl)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Outcomes[k].Outcome
			if (got == core.DetectedConventional) != v.Conventional {
				t.Fatalf("%+v: fault %s: simulator %v, oracle conventional=%v", p, fl.Name(c), got, v.Conventional)
			}
			if got == core.DetectedMOT && !v.RestrictedMOT {
				t.Fatalf("%+v: fault %s: simulator says MOT-detected, oracle denies", p, fl.Name(c))
			}
			if v.RestrictedMOT && !v.Conventional {
				restricted++
				if got != core.DetectedMOT {
					gap++
				}
			}
		}
		t.Logf("%d faults, %d conventional, %d MOT; oracle: %d restricted-MOT beyond conventional, gap %d",
			len(faults), res.Conv, res.MOT, restricted, gap)
	})
}
