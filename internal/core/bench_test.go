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

// BenchmarkCollectPairs_sg5378 measures pair collection alone on the
// mot-resim circuit: every fault that reaches the sg5378 pipeline under
// its first vector set (64 random patterns, seed 4) collects its pairs,
// on faulty traces simulated in setup. Each iteration starts from an
// unbuilt fault-free lane memo, so the memo build every run pays is
// timed.
func BenchmarkCollectPairs_sg5378(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg5378")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	s, err := NewSimulator(c, tgen.Random(c.NumInputs(), 64, 4), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	type job struct {
		f    fault.Fault
		bad  *seqsim.Trace
		nout []int
	}
	var jobs []job
	for _, f := range fault.CollapsedList(c) {
		bad, _, detected, err := s.sim.RunFault(s.T, s.good, f, true)
		if err != nil {
			b.Fatal(err)
		}
		if detected {
			continue
		}
		if nsv, nout := s.profile(bad); conditionC(nsv, nout) {
			jobs = append(jobs, job{f, bad, nout})
		}
	}
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.memo = &memoCell{}
		pairs = 0
		for k := range jobs {
			pairs += len(s.collectPairs(&jobs[k].f, jobs[k].bad, jobs[k].nout))
		}
	}
	b.ReportMetric(float64(len(jobs)), "faults/op")
	b.ReportMetric(float64(pairs), "pairs/op")
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
		if s.rec.work.ResimVectorPasses == 2 {
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
	for _, pairs := range [][]pairInfo{s.collectPairs(&f, bad, nout), nil} {
		var out FaultOutcome
		passes = append(passes, cloneExpansion(s.expand(pairs, bad, nsv, nout, &out)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range passes {
			resimSink = s.resimulate(&f, bad, x, nout)
		}
	}
}

// cloneExpansion deep-copies x, which is valid only until the next
// expand call: the steps' extra slices alias the pair arena, which the
// next collectPairs overwrites.
func cloneExpansion(x *expansion) *expansion {
	steps := slices.Clone(x.steps)
	for k := range steps {
		for a := range steps[k].extra {
			steps[k].extra[a] = slices.Clone(steps[k].extra[a])
		}
	}
	return &expansion{s0: cloneStates(x.s0), steps: steps, marks: slices.Clone(x.marks), seeds: slices.Clone(x.seeds)}
}

// BenchmarkResim_sg5378 measures Section 3.4 resimulation alone on the
// mot-resim circuit: the resimulation passes the sg5378 pipeline runs
// under its first vector set (64 random patterns, seed 4) for every
// fault that reaches resimulation, the proposed expansion's and, where
// it fails and the retry's steps differ from its own, the portfolio
// retry's. Step 0, pair collection and expansion run in setup; each
// iteration replays the passes on the recorded expansions. skipped/op
// counts the retries the pipeline does not resimulate.
func BenchmarkResim_sg5378(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg5378")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	s, err := NewSimulator(c, tgen.Random(c.NumInputs(), 64, 4), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	type pass struct {
		f    fault.Fault
		bad  *seqsim.Trace
		nout []int
		x    *expansion
	}
	var passes []pass
	skipped := 0
	for _, pf := range pipelineFaults(b, s) {
		var out FaultOutcome
		x := cloneExpansion(s.expand(pf.pairs, pf.bad, pf.nsv, pf.nout, &out))
		passes = append(passes, pass{pf.f, pf.bad, pf.nout, x})
		if s.resimulate(&pf.f, pf.bad, x, pf.nout) {
			continue
		}
		retry := s.expand(nil, pf.bad, pf.nsv, pf.nout, &out)
		if sameSteps(retry.steps, x.steps) {
			skipped++
			continue
		}
		passes = append(passes, pass{pf.f, pf.bad, pf.nout, cloneExpansion(retry)})
	}
	s.rec = faultRecord{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range passes {
			p := &passes[k]
			resimSink = s.resimulate(&p.f, p.bad, p.x, p.nout)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(passes)), "passes/op")
	b.ReportMetric(float64(skipped), "skipped/op")
	b.ReportMetric(float64(s.rec.work.ResimVectorFrames)/float64(b.N), "frames/op")
	b.ReportMetric(float64(s.rec.work.ResimGateEvals)/float64(b.N), "gate-evals/op")
}

// expandSink keeps the benchmarked expansions live.
var expandSink int

// BenchmarkExpand_sg5378 measures Procedure 2 alone on the mot-resim
// circuit: both expansions, the proposed one and the portfolio retry's
// trivial one, of every fault that reaches expansion in the sg5378
// pipeline under its first vector set (64 random patterns, seed 4).
// Step 0 and pair collection run in setup.
func BenchmarkExpand_sg5378(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg5378")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	s, err := NewSimulator(c, tgen.Random(c.NumInputs(), 64, 4), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	faults := pipelineFaults(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range faults {
			pf := &faults[k]
			var out FaultOutcome
			expandSink += len(s.expand(pf.pairs, pf.bad, pf.nsv, pf.nout, &out).steps)
			expandSink += len(s.expand(nil, pf.bad, pf.nsv, pf.nout, &out).steps)
		}
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}
