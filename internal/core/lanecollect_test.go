package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bench"
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

// footBench is a circuit where both assertions of a flip-flop derive
// nothing on the fault-free frame but do on a faulty one: d1 = XOR(a, b)
// with a and b unspecified, and f stuck-at-1 sets a. Asserting d1 = α
// then forces b = ¬α on the faulty frame only, which latches d2 = ¬α.
// Only the gates of the asserted D node put a in the lanes' footprint.
const footBench = `
INPUT(in1)
OUTPUT(o1)
q1 = DFF(d1)
q2 = DFF(d2)
nin1 = NOT(in1)
f = AND(in1, nin1)
a = OR(q1, f)
b = BUF(q2)
d1 = XOR(a, b)
d2 = BUF(b)
o1 = AND(f, q1)
`

// collectInput is a circuit and test sequence the collection
// cross-checks run on.
type collectInput struct {
	name  string
	build func() (*netlist.Circuit, seqsim.Sequence)
}

// collectInputs are the suite circuits sg208 to sg1423; free160, 140 of
// whose flip-flops never initialize, so its time units carry more than
// 128 candidates: two lane passes per unit, the first one four words
// wide; and footBench.
func collectInputs(t *testing.T) []collectInput {
	var inputs []collectInput
	for _, name := range []string{"sg208", "sg298", "sg344", "sg420", "sg641", "sg713", "sg1423"} {
		inputs = append(inputs, collectInput{name, func() (*netlist.Circuit, seqsim.Sequence) {
			e, err := circuits.SuiteEntryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			return c, tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
		}})
	}
	return append(inputs,
		collectInput{"free160", func() (*netlist.Circuit, seqsim.Sequence) {
			c := circuits.MustGenerate(circuits.GenParams{Name: "free160", Inputs: 8, Outputs: 6,
				FFs: 160, FreeFFs: 140, Gates: 420, Seed: 16})
			return c, tgen.Random(c.NumInputs(), 12, 160)
		}},
		collectInput{"footprint", func() (*netlist.Circuit, seqsim.Sequence) {
			c, err := bench.ParseString("footprint", footBench)
			if err != nil {
				t.Fatal(err)
			}
			return c, tgen.Random(c.NumInputs(), 4, 1)
		}})
}

// collectVariant is a pair-collection configuration the cross-checks
// run: the paper's two-pass schedule, the Fixpoint schedule, and the
// deeper backward chase.
type collectVariant struct {
	name     string
	schedule Schedule
	rounds   int
	depth    int
}

// collectVariants are the two-pass schedule, Fixpoint at 1 and 8
// rounds, and BackwardDepth 2 and 4.
var collectVariants = []collectVariant{
	{"two-pass", TwoPass, 8, 1},
	{"fixpoint1", Fixpoint, 1, 1},
	{"fixpoint8", Fixpoint, 8, 1},
	{"deep2", TwoPass, 8, 2},
	{"deep4", TwoPass, 8, 4},
}

// config is DefaultConfig under the variant.
func (v collectVariant) config() Config {
	cfg := DefaultConfig()
	cfg.Schedule, cfg.FixpointRounds, cfg.BackwardDepth = v.schedule, v.rounds, v.depth
	return cfg
}

// countCalls runs collect on a fresh fault record and returns its pairs,
// copied out of the arenas, and the implication calls it counted.
func countCalls(s *Simulator, collect func() []pairInfo) ([]pairInfo, int64) {
	s.rec = faultRecord{}
	pairs := clonePairs(collect())
	return pairs, s.rec.work.ImplyCalls
}

// checkAgainstRef fails the test unless got, collected with calls
// implication calls, equals collectPairsRef's pairs and call count.
func checkAgainstRef(t *testing.T, tag string, s *Simulator, f fault.Fault, bad *seqsim.Trace, nout []int, got []pairInfo, calls int64) {
	t.Helper()
	ref, refCalls := countCalls(s, func() []pairInfo { return s.collectPairsRef(&f, bad, nout) })
	samePairs(t, tag+" vs reference", got, ref)
	if calls != refCalls {
		t.Fatalf("%s: %d implication calls, reference %d", tag, calls, refCalls)
	}
}

// crossCheckCollect runs one subtest per collectInputs entry, and in it
// one per collectVariants entry on a simulator of its own (the memo is
// built under the configured schedule). For every fault of the input's
// collapsed list that reaches pair collection it calls check once
// uncapped and once with a MaxPairs cap that cuts the fault's list in
// the middle, usually inside a time unit, so the cut must fall on the
// same pair; check returns the pairs it collected, copied out of the
// arenas. It logs the implication pairs and their settled sides, and
// fails an input none of whose faults reach lane collection.
func crossCheckCollect(t *testing.T, check func(t *testing.T, s *Simulator, f fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo) {
	for _, in := range collectInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			c, T := in.build()
			for _, v := range collectVariants {
				t.Run(v.name, func(t *testing.T) {
					s, err := NewSimulator(c, T, v.config())
					if err != nil {
						t.Fatal(err)
					}
					s.cfg.MaxPairs = 0
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
						all := check(t, s, f, bad, nout)
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
							if capped := check(t, s, f, bad, nout); len(capped) != s.cfg.MaxPairs {
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
		})
	}
}

// TestCollectLanesCrossCheck asserts that pair collection in lane
// passes over every candidate and the allocate-per-pair reference
// (collectPairsRef) return exactly the same pairs in the same (u, i)
// order, with equal conflict and detection flags, extra lists
// (ascending j) and sv sets, and count the same implication calls,
// uncapped and under a mid-list MaxPairs cap (crossCheckCollect).
func TestCollectLanesCrossCheck(t *testing.T) {
	crossCheckCollect(t, func(t *testing.T, s *Simulator, f fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
		t.Helper()
		tag := fmt.Sprintf("%s (cap %d)", f.Name(s.c), s.cfg.MaxPairs)
		lanes, calls := countCalls(s, func() []pairInfo { return s.collectPairsLanes(&f, bad, nout, false) })
		checkAgainstRef(t, tag+" lanes", s, f, bad, nout, lanes, calls)
		return lanes
	})
}

// TestCollectMemoCrossCheck asserts that the production collection
// (the fault-free lane memo with reruns on the faulty frame, or lane
// passes over every candidate under BackwardDepth > 1) returns exactly
// collectPairsRef's pairs and the pairs of lane passes over every
// candidate, uncapped and under a mid-list MaxPairs cap, with the same
// ImplyCalls count as both. Across the inputs the memo must serve
// pairs of stem faults, branch faults and stem faults on a flip-flop's
// Q node, and must also rerun some.
func TestCollectMemoCrossCheck(t *testing.T) {
	var hits, reruns [3]int64 // stem, branch, Q-node stem
	crossCheckCollect(t, func(t *testing.T, s *Simulator, f fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
		t.Helper()
		tag := fmt.Sprintf("%s (cap %d)", f.Name(s.c), s.cfg.MaxPairs)
		all, calls := countCalls(s, func() []pairInfo { return s.collectPairsLanes(&f, bad, nout, false) })
		memo, memoCalls := countCalls(s, func() []pairInfo { return s.collectPairs(&f, bad, nout) })
		if memoCalls != calls {
			t.Fatalf("%s: memo path counts %d implication calls, lane passes %d", tag, memoCalls, calls)
		}
		served := s.rec.work.ImplyMemoHits
		samePairs(t, tag+" memo vs lanes", memo, all)
		checkAgainstRef(t, tag+" memo", s, f, bad, nout, memo, memoCalls)
		kind := 0
		switch {
		case !f.IsStem():
			kind = 1
		case s.cc.FFOf[f.Node] >= 0:
			kind = 2
		}
		hits[kind] += served
		if s.cfg.BackwardDepth == 1 {
			implied := int64(0)
			for _, p := range memo {
				if p.u > 0 {
					implied++
				}
			}
			reruns[kind] += implied - served
		}
		return memo
	})
	t.Logf("memo hits (stem, branch, Q stem) %v, reruns %v", hits, reruns)
	for k, name := range []string{"stem", "branch", "Q-node stem"} {
		if hits[k] == 0 || reruns[k] == 0 {
			t.Errorf("%s faults: %d memo hits, %d reruns; want both", name, hits[k], reruns[k])
		}
	}
}

// TestCollectMemoSize bounds the fault-free lane memo of the largest
// pipeline workload, sg5378 under 64 random patterns, at 0.3 MB of slabs.
func TestCollectMemoSize(t *testing.T) {
	e, err := circuits.SuiteEntryByName("sg5378")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	s, err := NewSimulator(c, tgen.Random(c.NumInputs(), 64, 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := s.collectMemo()
	size, lanes, extras, entries := len(m.units)*int(unsafe.Sizeof(memoUnit{})), 0, 0, 0
	for _, mu := range m.units {
		size += 8*(len(mu.conf)+len(mu.det)+len(mu.footMask)) + 4*(len(mu.extraAt)+len(mu.extras)+len(mu.footAt)+len(mu.footNode))
		lanes += max(len(mu.extraAt)-1, 0)
		extras += len(mu.extras)
		entries += len(mu.footNode)
	}
	t.Logf("memo: %d lanes, %d extras, %d footprint entries, %d bytes", lanes, extras, entries, size)
	if size > 300_000 {
		t.Errorf("memo holds %d bytes, want at most 300000", size)
	}
}

// TestCollectMemoParallelCrossCheck runs sg641 and sg1423 on four
// workers from fresh simulators, so the workers race the memo's lazy
// build, and asserts that the outcomes, the JSONL trace and the
// implication counters equal a one-worker run's.
func TestCollectMemoParallelCrossCheck(t *testing.T) {
	for _, name := range []string{"sg641", "sg1423"} {
		t.Run(name, func(t *testing.T) {
			e, err := circuits.SuiteEntryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
			faults := fault.CollapsedList(c)
			run := func(workers int) (*Result, []byte) {
				var buf bytes.Buffer
				cfg := DefaultConfig()
				cfg.TraceWriter = &buf
				s, err := NewSimulator(c, T, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.RunParallel(faults, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			ser, serTrace := run(1)
			par, parTrace := run(4)
			if !bytes.Equal(serTrace, parTrace) {
				t.Fatal("JSONL trace differs between 1 and 4 workers")
			}
			for k := range ser.Outcomes {
				if ser.Outcomes[k] != par.Outcomes[k] {
					t.Fatalf("fault %d: 1 worker %+v, 4 workers %+v", k, ser.Outcomes[k], par.Outcomes[k])
				}
			}
			a, b := ser.Stages, par.Stages
			if a.ImplyCalls != b.ImplyCalls || a.ImplyLaneEvals != b.ImplyLaneEvals || a.ImplyMemoHits != b.ImplyMemoHits {
				t.Fatalf("implication counters: 1 worker %d/%d/%d, 4 workers %d/%d/%d",
					a.ImplyCalls, a.ImplyLaneEvals, a.ImplyMemoHits, b.ImplyCalls, b.ImplyLaneEvals, b.ImplyMemoHits)
			}
			if a.ImplyMemoHits == 0 {
				t.Fatal("no pair served from the memo")
			}
		})
	}
}

// FuzzCollectMemo checks the memo path pair for pair against
// collectPairsRef on generated circuits of 2 to 17 flip-flops, some of
// them never initializing, over every third fault of the uncollapsed
// list: stem faults, Q-node stem faults and branch faults alike.
func FuzzCollectMemo(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed*11), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, free, pick uint8) {
		ffs := 3 + int(shape)%16
		p := circuits.GenParams{Name: "fuzzmemo", Inputs: 2 + int(shape>>4)%3, Outputs: 1 + int(shape>>6),
			FFs: ffs, FreeFFs: int(free) % (ffs/2 + 1), Gates: 4*ffs + 10 + int(free>>4), Seed: seed}
		c, err := circuits.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		s, err := NewSimulator(c, tgen.Random(c.NumInputs(), 6+int(pick)%16, seed), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range fault.List(c) {
			bad, _, detected, err := s.runBad(fl)
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
			ref := s.collectPairsRef(&fl, bad, nout)
			samePairs(t, fl.Name(c), s.collectPairs(&fl, bad, nout), ref)
		}
	})
}

// TestCollectDeepCrossCheck asserts that with BackwardDepth 2 and 4,
// under the two-pass schedule and Fixpoint at 1 and 8 rounds, the lane
// collection with its chase levels returns exactly the reference's
// pairs (deepBackwardRef, a fresh serial frame per level) and counts
// the same implication calls, for the collapsed lists of sg344, sg420
// and sg1423, the suite circuits where the deeper chase settles sides
// that one time unit of backward implication leaves open.
func TestCollectDeepCrossCheck(t *testing.T) {
	for _, name := range []string{"sg344", "sg420", "sg1423"} {
		t.Run(name, func(t *testing.T) {
			e, err := circuits.SuiteEntryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
			for _, depth := range []int{2, 4} {
				for _, v := range collectVariants[:3] {
					v.depth = depth
					s, err := NewSimulator(c, T, v.config())
					if err != nil {
						t.Fatal(err)
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
						got, calls := countCalls(s, func() []pairInfo { return s.collectPairs(&f, bad, nout) })
						checkAgainstRef(t, fmt.Sprintf("%s depth %d %s", f.Name(c), depth, v.name), s, f, bad, nout, got, calls)
						pairs += len(got)
						s.cfg.BackwardDepth = 1
						for k, p := range s.collectPairsLanes(&f, bad, nout, false) {
							if p.conf != got[k].conf || p.detect != got[k].detect {
								deep++
							}
						}
						s.cfg.BackwardDepth = depth
					}
					t.Logf("depth %d %s: %d pairs, %d settled further by the deeper chase", depth, v.name, pairs, deep)
					if deep == 0 {
						t.Fatalf("depth %d %s: the deeper chase settled no side", depth, v.name)
					}
				}
			}
		})
	}
}
