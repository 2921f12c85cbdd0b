package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
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
