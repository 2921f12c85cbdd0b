package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/tgen"
)

// TestUnassignedMatchesExpandable checks selectPair's incremental step
// 3 check against the full scan over every sequence, on every call the
// proposed procedure makes for the collapsed fault lists of sg208 to
// sg1423 under their suite sequences.
func TestUnassignedMatchesExpandable(t *testing.T) {
	var calls, blocked, mismatches atomic.Int64
	unassignedHook = func(p *pairInfo, seqs []*sequence, got bool) {
		calls.Add(1)
		want := expandable(p, seqs)
		if !want {
			blocked.Add(1)
		}
		if got != want && mismatches.Add(1) <= 5 {
			t.Errorf("pair (u=%d, i=%d) sv %v over %d sequences: unassigned %v, expandable %v",
				p.u, p.i, p.sv, len(seqs), got, want)
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
