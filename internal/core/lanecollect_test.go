package core

import (
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// clonePairs deep-copies pairs out of the per-simulator arenas, which
// the next collection overwrites.
func clonePairs(ps []pairInfo) []pairInfo {
	out := make([]pairInfo, len(ps))
	for k, p := range ps {
		p.extra[0] = slices.Clone(p.extra[0])
		p.extra[1] = slices.Clone(p.extra[1])
		p.sv = slices.Clone(p.sv)
		out[k] = p
	}
	return out
}

// samePair reports whether two pairs are identical field by field.
func samePair(a, b *pairInfo) bool {
	return a.u == b.u && a.i == b.i && a.conf == b.conf && a.detect == b.detect &&
		slices.Equal(a.extra[0], b.extra[0]) && slices.Equal(a.extra[1], b.extra[1]) &&
		slices.Equal(a.sv, b.sv)
}

// TestCollectLanesCrossCheck asserts that pair collection in lane
// passes returns exactly the pairs of the serial per-side frames
// (collectOneInto): the same pairs in the same (u, i) order, with equal
// conflict and detection flags, extra lists (ascending j) and sv sets,
// for the faults of the collapsed lists of sg208 to sg1423 that reach
// collection. Every fault is collected once uncapped and once with a
// MaxPairs cap that cuts its list in the middle, usually inside a time
// unit, so the cut must fall on the same pair.
func TestCollectLanesCrossCheck(t *testing.T) {
	type input struct {
		name  string
		build func() (*netlist.Circuit, seqsim.Sequence)
	}
	var inputs []input
	for _, name := range []string{"sg208", "sg298", "sg344", "sg420", "sg641", "sg713", "sg1423"} {
		inputs = append(inputs, input{name, func() (*netlist.Circuit, seqsim.Sequence) {
			e, err := circuits.SuiteEntryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			return c, tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
		}})
	}
	// 140 of free160's flip-flops never initialize, so its time units
	// carry more than 128 candidates: two lane passes per unit, the first
	// one four words wide.
	inputs = append(inputs, input{"free160", func() (*netlist.Circuit, seqsim.Sequence) {
		c := circuits.MustGenerate(circuits.GenParams{Name: "free160", Inputs: 8, Outputs: 6,
			FFs: 160, FreeFFs: 140, Gates: 420, Seed: 16})
		return c, tgen.Random(c.NumInputs(), 12, 160)
	}})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			c, T := in.build()
			s, err := NewSimulator(c, T, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			s.cfg.MaxPairs = 0
			check := func(f fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
				t.Helper()
				lanes := clonePairs(s.collectPairsPooled(&f, bad, nout, true))
				serial := s.collectPairsPooled(&f, bad, nout, false)
				if len(lanes) != len(serial) {
					t.Fatalf("%s (cap %d): %d lane pairs, %d serial", f.Name(c), s.cfg.MaxPairs, len(lanes), len(serial))
				}
				for p := range lanes {
					if !samePair(&lanes[p], &serial[p]) {
						t.Fatalf("%s (cap %d): pair %d differs:\n  lanes:  %+v\n  serial: %+v",
							f.Name(c), s.cfg.MaxPairs, p, lanes[p], serial[p])
					}
				}
				return lanes
			}
			var faults, pairs, conf, det, maxX int
			for _, f := range fault.CollapsedList(c) {
				bad, _, detected, err := s.runBad(f)
				if err != nil {
					t.Fatal(err)
				}
				if detected {
					continue
				}
				nsv, nout := s.profile(bad)
				if !conditionC(nsv, nout) {
					continue
				}
				all := check(f, bad, nout)
				faults++
				for u := 1; u < len(nout) && nout[u-1] > 0; u++ {
					maxX = max(maxX, nsv[u])
				}
				for _, p := range all {
					if p.u == 0 {
						continue
					}
					pairs++
					for a := 0; a < 2; a++ {
						if p.conf[a] {
							conf++
						} else if p.detect[a] {
							det++
						}
					}
				}
				if len(all) > 1 {
					s.cfg.MaxPairs = len(all)/2 + 1
					if capped := check(f, bad, nout); len(capped) != s.cfg.MaxPairs {
						t.Fatalf("%s: %d pairs under the cap %d", f.Name(c), len(capped), s.cfg.MaxPairs)
					}
					s.cfg.MaxPairs = 0
				}
			}
			t.Logf("%d faults, %d implication pairs, %d conflicting and %d detecting sides, up to %d lanes a unit",
				faults, pairs, conf, det, 2*maxX)
			if pairs == 0 {
				t.Fatal("no fault reached lane collection")
			}
		})
	}
}
