package core

import (
	"fmt"
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

// samePairs fails the test unless got and want hold identical pairs in
// the same order.
func samePairs(t *testing.T, tag string, got, want []pairInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, reference %d", tag, len(got), len(want))
	}
	for p := range got {
		if !samePair(&got[p], &want[p]) {
			t.Fatalf("%s: pair %d differs:\n  got:       %+v\n  reference: %+v", tag, p, got[p], want[p])
		}
	}
}

// TestCollectLanesCrossCheck asserts that pair collection in lane
// passes, the pooled serial per-side frames (collectOneInto) and the
// allocate-per-pair reference (collectPairsRef) return exactly the same
// pairs in the same (u, i) order, with equal conflict and detection
// flags, extra lists (ascending j) and sv sets, for the faults of the
// collapsed lists of sg208 to sg1423 that reach collection. Every fault
// is collected once uncapped and once with a MaxPairs cap that cuts its
// list in the middle, usually inside a time unit, so the cut must fall
// on the same pair.
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
				ref := s.collectPairsRef(&f, bad, nout)
				lanes := clonePairs(s.collectPairsPooled(&f, bad, nout, true))
				samePairs(t, fmt.Sprintf("%s (cap %d) lanes", f.Name(c), s.cfg.MaxPairs), lanes, ref)
				serial := s.collectPairsPooled(&f, bad, nout, false)
				samePairs(t, fmt.Sprintf("%s (cap %d) serial", f.Name(c), s.cfg.MaxPairs), serial, ref)
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

// TestCollectDeepCrossCheck asserts that with BackwardDepth 2 the
// pooled serial collection (deepBackward on the level-indexed frame
// pool) returns exactly the reference's pairs (deepBackwardRef, a fresh
// frame per level), for the collapsed lists of sg344, sg420 and sg1423,
// the suite circuits where the deeper chase settles sides that one
// time unit of backward implication leaves open.
func TestCollectDeepCrossCheck(t *testing.T) {
	for _, name := range []string{"sg344", "sg420", "sg1423"} {
		t.Run(name, func(t *testing.T) {
			e, err := circuits.SuiteEntryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			cfg := DefaultConfig()
			cfg.BackwardDepth = 2
			s, err := NewSimulator(c, tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.lanesCollect() {
				t.Fatal("BackwardDepth 2 must collect on serial frames")
			}
			var pairs, deep int
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
				ref := s.collectPairsRef(&f, bad, nout)
				samePairs(t, f.Name(c), s.collectPairs(&f, bad, nout), ref)
				pairs += len(ref)
				s.cfg.BackwardDepth = 1
				for k, p := range s.collectPairsPooled(&f, bad, nout, false) {
					if p.conf != ref[k].conf || p.detect != ref[k].detect {
						deep++
					}
				}
				s.cfg.BackwardDepth = 2
			}
			t.Logf("%d pairs, %d settled further by the deeper chase", pairs, deep)
			if deep == 0 {
				t.Fatal("the deeper chase settled no side")
			}
		})
	}
}
