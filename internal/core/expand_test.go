package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// TestUnassignedMatchesExpandable checks selectPair's incremental step
// 3 check against the full scan over every materialized sequence, on
// every call the proposed procedure makes for the collapsed fault lists
// of sg208 to sg1423 under their suite sequences.
func TestUnassignedMatchesExpandable(t *testing.T) {
	var calls, blocked, mismatches atomic.Int64
	// The sequences are materialized once per step count: an expand call
	// only appends steps, and its first step 3 check sees none, so an
	// entry whose step count matches belongs to the current call.
	type entry struct {
		steps int
		seqs  []*sequence
	}
	var mu sync.Mutex
	cache := map[*expansion]entry{}
	unassignedHook = func(p *pairInfo, x *expansion, got bool) {
		calls.Add(1)
		mu.Lock()
		e, ok := cache[x]
		if !ok || e.steps != len(x.steps) || len(x.steps) == 0 {
			e = entry{len(x.steps), x.sequences()}
			cache[x] = e
		}
		mu.Unlock()
		want := expandable(p, e.seqs)
		if !want {
			blocked.Add(1)
		}
		if got != want && mismatches.Add(1) <= 5 {
			t.Errorf("pair (u=%d, i=%d) sv %v over %d sequences: unassigned %v, expandable %v",
				p.u, p.i, p.sv, len(e.seqs), got, want)
		}
	}
	defer func() { unassignedHook = nil }()

	for _, name := range []string{"sg208", "sg298", "sg344", "sg420", "sg641", "sg713", "sg1423"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		s, err := NewSimulator(c, tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunParallel(fault.CollapsedList(c), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Both outcomes must occur, or the comparison proves nothing.
	if calls.Load() == 0 || blocked.Load() == 0 || blocked.Load() == calls.Load() {
		t.Fatalf("%d step 3 checks, %d blocked: need both outcomes", calls.Load(), blocked.Load())
	}
	t.Logf("%d step 3 checks agree (%d blocked)", calls.Load(), blocked.Load())
}

// packFromSequences is the reference lane packing: each of the given
// seed flip-flops' columns starts as the base trace on every lane of
// the chunk [lo, lo+64), and every cell where a materialized sequence
// differs from the trace is set lane by lane.
func packFromSequences(seqs []*sequence, base [][]logic.Val, seeds []int32, lo int) *laneCols {
	lc := &laneCols{}
	lc.reset(len(base[0]), len(base))
	for _, j := range seeds {
		lc.add(j, base, 0)
	}
	for l := lo; l < min(lo+64, len(seqs)); l++ {
		bit := uint64(1) << uint(l-lo)
		for c, j := range lc.ffs {
			for u, row := range seqs[l].states {
				if v := row[j]; v != base[u][j] {
					cell := lc.cell(int32(c), u)
					cell.One &^= bit
					cell.Zero &^= bit
					switch v {
					case logic.One:
						cell.One |= bit
					case logic.Zero:
						cell.Zero |= bit
					}
				}
			}
		}
	}
	return lc
}

// TestExpansionLanesMatchSequences checks the step-list packing against
// the materialized sequences: for random pair lists (collected pairs
// and trivial pairs, shuffled and thinned) on sg298 and sg641, every
// lane of every 64-lane chunk the vector pass packs from s0 and the
// steps must equal the lane diff-packed from the sequences, and every
// flip-flop without a column must hold the trace value in every
// sequence. N_STATES 512 takes steps past the six in-word lane bits.
func TestExpansionLanesMatchSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, name := range []string{"sg298", "sg641"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
		for _, nstates := range []int{8, 64, 512} {
			cfg := DefaultConfig()
			cfg.NStates = nstates
			s, err := NewSimulator(c, T, cfg)
			if err != nil {
				t.Fatal(err)
			}
			expansions, chunks := 0, 0
			for _, f := range fault.CollapsedList(c) {
				bad, _, detected, err := s.sim.RunFault(T, s.good, f, true)
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
				var list []pairInfo
				for _, p := range append(s.collectPairs(&f, bad, nout), s.trivialPairs(bad, nout)...) {
					if rng.Intn(4) != 0 {
						list = append(list, p)
					}
				}
				rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
				var out FaultOutcome
				x := s.expand(list, bad, nsv, nout, &out)
				seqs := x.sequences()
				if len(seqs) != x.lanes() {
					t.Fatalf("%s: %d sequences for %d lanes", f.Name(c), len(seqs), x.lanes())
				}
				expansions++
				seeded := make([]bool, c.NumFFs())
				for _, j := range x.seeds {
					seeded[j] = true
				}
				for _, sq := range seqs {
					for u, row := range sq.states {
						for j, v := range row {
							if !seeded[j] && v != bad.States[u][j] {
								t.Fatalf("%s: unseeded flip-flop %d differs from the trace at u=%d", f.Name(c), j, u)
							}
						}
					}
				}
				for lo := 0; lo < x.lanes(); lo += 64 {
					chunks++
					all := ^uint64(0)
					if n := x.lanes() - lo; n < 64 {
						all = 1<<uint(n) - 1
					}
					got := &laneCols{}
					got.reset(c.NumFFs(), len(T)+1)
					got.pack(x, lo, all)
					want := packFromSequences(seqs, bad.States, x.seeds, lo)
					for cidx, j := range got.ffs {
						for u := 0; u <= len(T); u++ {
							g, w := got.cell(int32(cidx), u), want.cell(int32(cidx), u)
							if g.One&all != w.One&all || g.Zero&all != w.Zero&all {
								t.Fatalf("%s nstates %d: flip-flop %d u=%d lanes [%d, %d): packed %x/%x, sequences %x/%x",
									f.Name(c), nstates, j, u, lo, lo+64, g.One&all, g.Zero&all, w.One&all, w.Zero&all)
							}
						}
					}
				}
			}
			if expansions == 0 {
				t.Fatalf("%s nstates %d: no expansion checked", name, nstates)
			}
			t.Logf("%s nstates %d: %d expansions, %d chunks", name, nstates, expansions, chunks)
		}
	}
}

// pipelineFault is one fault that reaches Procedure 2 in the pipeline,
// with what expand reads: its faulty trace, profile and collected
// pairs (a deep copy, so later collections cannot overwrite it).
type pipelineFault struct {
	f         fault.Fault
	bad       *seqsim.Trace
	nsv, nout []int
	pairs     []pairInfo
}

// pipelineFaults returns the collapsed faults of s's circuit that reach
// expansion: undetected conventionally, passing condition (C) and not
// identified from their pairs.
func pipelineFaults(tb testing.TB, s *Simulator) []pipelineFault {
	tb.Helper()
	var out []pipelineFault
	for _, f := range fault.CollapsedList(s.c) {
		bad, _, detected, err := s.sim.RunFault(s.T, s.good, f, true)
		if err != nil {
			tb.Fatal(err)
		}
		if detected {
			continue
		}
		nsv, nout := s.profile(bad)
		if !conditionC(nsv, nout) {
			continue
		}
		pairs := slices.Clone(s.collectPairs(&f, bad, nout))
		if slices.ContainsFunc(pairs, func(p pairInfo) bool {
			return (p.detect[0] && p.resolved(1)) || (p.detect[1] && p.resolved(0))
		}) {
			continue // detected by identification: no expansion
		}
		for k := range pairs {
			p := &pairs[k]
			p.extra = [2][]svAssign{slices.Clone(p.extra[0]), slices.Clone(p.extra[1])}
			p.sv = slices.Clone(p.sv)
		}
		out = append(out, pipelineFault{f, bad, nsv, nout, pairs})
	}
	return out
}

// sameExpansion reports where two expansions differ, or "" when their
// steps, base sequences, marks and seeds agree.
func sameExpansion(a, b *expansion) string {
	switch {
	case !sameSteps(a.steps, b.steps):
		return fmt.Sprintf("steps %v, want %v", a.steps, b.steps)
	case !slices.EqualFunc(a.s0, b.s0, slices.Equal[[]logic.Val]):
		return "s0 differs"
	case !slices.Equal(a.marks, b.marks):
		return fmt.Sprintf("marks %v, want %v", a.marks, b.marks)
	case !slices.Equal(a.seeds, b.seeds):
		return fmt.Sprintf("seeds %v, want %v", a.seeds, b.seeds)
	}
	return ""
}

// TestTrivialSelectMatchesList checks the closed-form trivial selection
// against selectPair over the materialized trivial pair list
// (expandRef), for the portfolio retry (expand(nil)) and for the
// proposed expansion's phase 2 fallback, on every pipeline fault of
// sg298, sg641 and sg5378 under 64 random patterns (seed 4). MaxPairs 1,
// 7 and 50 cut the trivial list inside a unit; NStates 8, 64 and 256
// vary the number of steps. Whole expansions and the Table 3 counters
// must agree. The collected pairs rarely run out before the budget, so
// the proposed expansion also runs on a thinned list (every fourth
// pair), whose fallback starts from phase 1's s0 and the stamps of the
// collected pairs' steps. Both the fallback and a cut inside a unit
// must occur.
func TestTrivialSelectMatchesList(t *testing.T) {
	if testing.Short() {
		t.Skip("sg5378 collection")
	}
	var fallbacks, cuts, compared int
	for _, name := range []string{"sg298", "sg641", "sg5378"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		T := tgen.Random(c.NumInputs(), 64, 4)
		for _, maxPairs := range []int{1, 7, 50, 4096} {
			cfg := DefaultConfig()
			cfg.MaxPairs = maxPairs
			s, err := NewSimulator(c, T, cfg)
			if err != nil {
				t.Fatal(err)
			}
			faults := pipelineFaults(t, s)
			if len(faults) == 0 {
				t.Fatalf("%s: no pipeline fault", name)
			}
			for _, nstates := range []int{8, 64, 256} {
				s.cfg.NStates = nstates
				for _, pf := range faults {
					list := s.trivialPairs(pf.bad, pf.nout)
					if n := len(list); n > 0 {
						// The cut splits a unit: its last unit lists
						// fewer pairs than it has X cells.
						last := list[n-1].u
						if in := n - slices.IndexFunc(list, func(p pairInfo) bool { return p.u == last }); in < pf.nsv[last] {
							cuts++
						}
					}
					var thin []pairInfo
					for k := 0; k < len(pf.pairs); k += 4 {
						thin = append(thin, pf.pairs[k])
					}
					for _, run := range []struct {
						name        string
						pairs, want []pairInfo
					}{{"retry", nil, list}, {"proposed", pf.pairs, pf.pairs}, {"thinned", thin, thin}} {
						var got, want FaultOutcome
						x := cloneExpansion(s.expand(run.pairs, pf.bad, pf.nsv, pf.nout, &got))
						xr := s.expandRef(run.want, pf.bad, pf.nsv, pf.nout, &want)
						if d := sameExpansion(x, xr); d != "" || got != want {
							t.Fatalf("%s MaxPairs %d NStates %d fault %s, %s: %s; counters %+v/%d, want %+v/%d",
								name, maxPairs, nstates, pf.f.Name(c), run.name, d, got.Counters, got.Expansions, want.Counters, want.Expansions)
						}
						compared++
						if run.pairs != nil {
							// The fallback ran when the pairs alone take
							// fewer steps.
							s.cfg.UseBackwardImplications = false
							var only FaultOutcome
							if n := len(s.expandRef(run.pairs, pf.bad, pf.nsv, pf.nout, &only).steps); n < len(x.steps) {
								fallbacks++
							}
							s.cfg.UseBackwardImplications = true
						}
					}
				}
			}
		}
	}
	if fallbacks == 0 || cuts == 0 {
		t.Fatalf("%d expansions compared, %d fell back, %d cut: need both", compared, fallbacks, cuts)
	}
	t.Logf("%d expansions compared, %d fell back to trivial pairs, %d cut inside a unit", compared, fallbacks, cuts)
}
