package core

import (
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// collectSetup builds an sg298 simulator and picks the undetected fault
// with the most candidate pairs, so the benchmark exercises a realistic
// pair-collection workload (many pairs across several time units).
func collectSetup(b *testing.B, cfg Config) (*Simulator, fault.Fault, *seqsim.Trace, []int) {
	b.Helper()
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var (
		bestFault fault.Fault
		bestBad   *seqsim.Trace
		bestNout  []int
		bestPairs = -1
	)
	for _, f := range fault.CollapsedList(c) {
		bad, _, detected, err := s.sim.RunFault(s.T, s.good, f, true)
		if err != nil {
			b.Fatal(err)
		}
		if detected {
			continue
		}
		nsv, nout := s.profile(bad)
		if !conditionC(nsv, nout) {
			continue
		}
		if n := len(s.collectPairs(&f, bad, nout)); n > bestPairs {
			bestFault, bestBad, bestNout, bestPairs = f, bad, nout, n
		}
	}
	if bestPairs < 8 {
		b.Fatalf("no fault with enough pairs found (best %d)", bestPairs)
	}
	return s, bestFault, bestBad, bestNout
}

// BenchmarkCollectPairs measures the pooled pair-collection path: one
// lane implication pass per time unit, arena-backed pair data.
func BenchmarkCollectPairs(b *testing.B) {
	s, f, bad, nout := collectSetup(b, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := s.collectPairs(&f, bad, nout)
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// benchSimulateList measures the whole per-fault MOT pipeline (without the
// bit-parallel prescreen) over the collapsed fault list.
func benchSimulateList(b *testing.B, cfg Config) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	cfg.Prescreen = false
	s, err := NewSimulator(c, T, cfg)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(faults, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateList(b *testing.B) { benchSimulateList(b, DefaultConfig()) }

// resimSink keeps the benchmarked resimulation results live.
var resimSink bool

// BenchmarkResimulateVV measures the bit-parallel resimulation kernel:
// both vector passes (the proposed expansion and the portfolio retry)
// of the first sg1423 fault, in collapsed-list order, that resimulates
// twice. Expansion runs once in setup; each iteration replays the two
// passes on copies of their expansions.
func BenchmarkResimulateVV(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg1423")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	s, err := NewSimulator(c, tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var f fault.Fault
	found := false
	for _, g := range fault.CollapsedList(c) {
		if _, err := s.SimulateFault(g); err != nil {
			b.Fatal(err)
		}
		if s.lastResim.VectorPasses == 2 {
			f, found = g, true
			break
		}
	}
	if !found {
		b.Fatal("no fault resimulates twice")
	}
	bad, _, _, err := s.sim.RunFault(s.T, s.good, f, true)
	if err != nil {
		b.Fatal(err)
	}
	nsv, nout := s.profile(bad)
	var passes []*expansion
	for _, pairs := range [][]pairInfo{s.collectPairs(&f, bad, nout), s.trivialPairs(bad, nout)} {
		var out FaultOutcome
		x := s.expand(pairs, bad, nsv, nout, &out)
		passes = append(passes, &expansion{
			s0:    cloneStates(x.s0),
			steps: slices.Clone(x.steps),
			marks: slices.Clone(x.marks),
			seeds: slices.Clone(x.seeds),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range passes {
			resimSink = s.resimulate(&f, bad, x)
		}
	}
}
