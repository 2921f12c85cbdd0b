package motsim

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices listed
// in DESIGN.md §5. Regeneration of the actual table rows is done by
// cmd/mottables; these benchmarks measure the cost of each experiment's
// computational kernel and serve as regression guards for the measured
// shapes (each bench asserts its experiment's qualitative outcome once).

import (
	"testing"

	"repro/internal/bitsim"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/xtrace"
)

// --- Figure 1: conventional three-valued simulation of s27 ---

func BenchmarkFig1Conventional(b *testing.B) {
	c := circuits.S27()
	pat := Pattern{One, Zero, One, One}
	ps := []Val{X, X, X}
	vals := make([]Val, c.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalFrame(c, pat, ps, nil, vals)
	}
	if vals[c.Outputs[0]] != X {
		b.Fatal("Figure 1 property violated")
	}
}

// --- Figure 2: state expansion at time 0 on s27 ---

func BenchmarkFig2Expansion(b *testing.B) {
	c := circuits.S27()
	pat := Pattern{One, Zero, One, One}
	vals := make([]Val, c.NumNodes())
	count := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count = 0
		for ffIdx := 0; ffIdx < c.NumFFs(); ffIdx++ {
			for _, alpha := range []Val{Zero, One} {
				ps := []Val{X, X, X}
				ps[ffIdx] = alpha
				EvalFrame(c, pat, ps, nil, vals)
				if vals[c.Outputs[0]].IsBinary() {
					count++
				}
				for _, ff := range c.FFs {
					if vals[ff.D].IsBinary() {
						count++
					}
				}
			}
		}
	}
	if count != 3+0+5 {
		b.Fatalf("Figure 2 counts = %d, want 8", count)
	}
}

// --- Figure 3: backward implication on s27 ---

func BenchmarkFig3Backward(b *testing.B) {
	c := circuits.S27()
	pat := Pattern{One, Zero, One, One}
	base := make([]Val, c.NumNodes())
	EvalFrame(c, pat, []Val{X, X, X}, nil, base)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, alpha := range []Val{Zero, One} {
			fr := NewFrame(c, nil, base)
			if !fr.AssignNextState(1, alpha) || !fr.ImplyTwoPass() {
				b.Fatal("unexpected conflict")
			}
			if fr.Output(0).IsBinary() {
				total++
			}
			for j := 0; j < c.NumFFs(); j++ {
				if fr.NextState(j).IsBinary() {
					total++
				}
			}
		}
	}
	if total != 7 {
		b.Fatalf("Figure 3 count = %d, want 7", total)
	}
}

// --- Figure 4: implication conflict ---

func BenchmarkFig4Conflict(b *testing.B) {
	c := circuits.Fig4()
	base := make([]Val, c.NumNodes())
	EvalFrame(c, Pattern{Zero}, []Val{X}, nil, base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := NewFrame(c, nil, base)
		if fr.AssignNextState(0, One) && fr.ImplyTwoPass() {
			b.Fatal("Figure 4 conflict not found")
		}
	}
}

// --- Table 1: the expansion-resolves-detection mechanism ---

func BenchmarkTable1Example(b *testing.B) {
	c := circuits.Table1()
	a, _ := c.NodeByName("a")
	f := Fault{Node: a, Gate: -1, Stuck: One}
	T := make(Sequence, 4)
	for u := range T {
		T[u] = Pattern{Zero}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(c, T, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		o, err := sim.SimulateFault(f)
		if err != nil {
			b.Fatal(err)
		}
		if o.Outcome != DetectedMOT {
			b.Fatalf("outcome = %v, want DetectedMOT", o.Outcome)
		}
	}
}

// --- Table 2: whole-circuit fault counts, one bench per suite tier ---

// benchTable2 runs the full Table 2 experiment (proposed + baseline) for
// one suite entry per iteration and asserts the paper's ordering.
func benchTable2(b *testing.B, name string) {
	e, err := circuits.SuiteEntryByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunEntry(e, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if run.Proposed.Detected() < run.Baseline.Detected() ||
			run.Baseline.Detected() < run.Proposed.Conv {
			b.Fatalf("%s: ordering violated: conv=%d base=%d prop=%d",
				name, run.Proposed.Conv, run.Baseline.Detected(), run.Proposed.Detected())
		}
	}
}

func BenchmarkTable2_sg208(b *testing.B)  { benchTable2(b, "sg208") }
func BenchmarkTable2_sg298(b *testing.B)  { benchTable2(b, "sg298") }
func BenchmarkTable2_sg344(b *testing.B)  { benchTable2(b, "sg344") }
func BenchmarkTable2_sg420(b *testing.B)  { benchTable2(b, "sg420") }
func BenchmarkTable2_sg641(b *testing.B)  { benchTable2(b, "sg641") }
func BenchmarkTable2_sg713(b *testing.B)  { benchTable2(b, "sg713") }
func BenchmarkTable2_sg1423(b *testing.B) { benchTable2(b, "sg1423") }

// --- Table 3: counter collection on a counter-rich circuit ---

func BenchmarkTable3Counters(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunEntry(e, experiments.Options{SkipBaselineScaled: true})
		if err != nil {
			b.Fatal(err)
		}
		_, _, extra := run.Proposed.AvgCounters()
		if run.Proposed.MOT > 0 && extra <= 0 {
			b.Fatal("Table 3 extra counter should be positive when MOT detections exist")
		}
	}
}

// --- Closing experiment: deterministic (HITEC-style) sequence ---

func BenchmarkHITECStyle(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	faults := fault.CollapsedList(c)
	gcfg := tgen.DefaultGreedyConfig()
	gcfg.MaxLen = 64
	gcfg.Seed = e.SeqSeed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		T, err := tgen.Greedy(c, faults, gcfg)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := core.NewSimulator(c, T, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(faults, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Prescreen: batched bit-parallel conventional stage ---

// benchPrescreen measures the whole-list pipeline on a >64-fault circuit
// with the conventional prescreen on vs. off; the workload is otherwise
// identical and the outcomes are asserted to agree with the stage
// counters. sg298 is MOT-stage-heavy (prescreen gains little); sg344 is
// conventionally-dominated (prescreen removes most serial step-0 work).
func benchPrescreen(b *testing.B, name string, on bool) {
	e, err := circuits.SuiteEntryByName(name)
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	if len(faults) <= bitsim.Lanes {
		b.Fatalf("need a >%d-fault circuit, got %d faults", bitsim.Lanes, len(faults))
	}
	cfg := core.DefaultConfig()
	cfg.Prescreen = on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(c, T, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(faults, nil)
		if err != nil {
			b.Fatal(err)
		}
		if on && res.Stages.PrescreenDropped != res.Conv {
			b.Fatal("prescreen drop count disagrees with conventional detections")
		}
	}
}

func BenchmarkPrescreenOn_sg298(b *testing.B)  { benchPrescreen(b, "sg298", true) }
func BenchmarkPrescreenOff_sg298(b *testing.B) { benchPrescreen(b, "sg298", false) }
func BenchmarkPrescreenOn_sg344(b *testing.B)  { benchPrescreen(b, "sg344", true) }
func BenchmarkPrescreenOff_sg344(b *testing.B) { benchPrescreen(b, "sg344", false) }

// BenchmarkConventional_sg5378 measures the bit-parallel conventional
// simulation kernel alone: bitsim.RunStats over the collapsed sg5378
// list with 64 random vectors on one worker, the fault-free trace
// included. Most gates stay off the event schedule in most frames, so
// this is where the event-driven evaluation pays; GateEvals reports the
// gates it evaluated per run.
func BenchmarkConventional_sg5378(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg5378")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 64, e.SeqSeed)
	faults := fault.CollapsedList(c)
	b.ReportAllocs()
	b.ResetTimer()
	var st bitsim.Stats
	for i := 0; i < b.N; i++ {
		if _, st, err = bitsim.RunStats(c, T, faults, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.GateEvals), "gate-evals/op")
}

// --- Bit-parallel resimulation: 64-lane expansion stage ---

// benchResimBitParallel measures the whole-list pipeline, whose Section
// 3.4 stage resimulates every expansion in 64-lane vector passes. sg298
// has many MOT-pipeline faults with large expansion sets; sg641's
// frames are large enough to show what the event-driven lane pass
// skips. The stage counters are asserted to record the vector passes.
func benchResimBitParallel(b *testing.B, name string) {
	e, err := circuits.SuiteEntryByName(name)
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(c, T, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(faults, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stages.ResimVectorPasses == 0 {
			b.Fatal("no vector passes recorded")
		}
	}
}

func BenchmarkResimBitParallelOn_sg298(b *testing.B) { benchResimBitParallel(b, "sg298") }
func BenchmarkResimBitParallelOn_sg641(b *testing.B) { benchResimBitParallel(b, "sg641") }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationImplicationPasses compares the paper's two-pass
// schedule against the fixpoint extension on the sg344 workload.
func BenchmarkAblationImplicationPasses(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg344")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, sched := range []struct {
		name string
		s    core.Schedule
	}{{"two-pass", core.TwoPass}, {"fixpoint", core.Fixpoint}} {
		b.Run(sched.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Schedule = sched.s
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(faults, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBackwardDepth compares single-time-unit backward
// implications (the paper) with the multi-time-unit extension.
func BenchmarkAblationBackwardDepth(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg344")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, depth := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "depth1", 2: "depth2", 4: "depth4"}[depth], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.BackwardDepth = depth
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(faults, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNStates sweeps the expansion budget.
func BenchmarkAblationNStates(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg298")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(map[int]string{4: "n4", 16: "n16", 64: "n64", 256: "n256"}[n], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.NStates = n
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(faults, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsOverhead measures the cost of the instrumentation
// layer on the sg298 whole-list workload: Config.Metrics on (stage
// timers, pool gauges, per-fault histograms) against off. The
// acceptance bar is a metrics-on median within 3% of metrics-off.
func BenchmarkMetricsOverhead(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg298")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Metrics = on
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(faults, nil)
				if err != nil {
					b.Fatal(err)
				}
				if on && res.Metrics == nil {
					b.Fatal("metrics-on run returned no histograms")
				}
				if !on && res.Metrics != nil {
					b.Fatal("metrics-off run collected histograms")
				}
			}
		})
	}
}

// BenchmarkLiveOverhead measures the cost of live snapshot publication
// on the sg298 whole-list workload: Config.Live set (coarse-cadence
// shared-counter publication for /metrics scraping) against nil. The
// acceptance bar is a live-on median within 2% of live-off.
func BenchmarkLiveOverhead(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg298")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				var live *core.LiveStats
				if on {
					live = &core.LiveStats{}
					cfg.Live = live
				}
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(faults, nil)
				if err != nil {
					b.Fatal(err)
				}
				if on && live.Snapshot().FaultsDone != int64(res.Total) {
					b.Fatal("live snapshot incomplete after run")
				}
			}
		})
	}
}

// BenchmarkSpanOverhead measures the cost of hierarchical span tracing
// on the sg298 whole-list workload: Config.Tracer set at the default
// 5% per-fault sampling rate against nil. The acceptance bar is a
// tracing-on median within 5% of tracing-off.
func BenchmarkSpanOverhead(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg298")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				var tracer *xtrace.Tracer
				if on {
					tracer = xtrace.New(xtrace.Options{})
					cfg.Tracer = tracer // TraceSampleRate 0 → default 0.05
				}
				sim, err := core.NewSimulator(c, T, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(faults, nil); err != nil {
					b.Fatal(err)
				}
				if on {
					if st := tracer.Stats(); st.Spans == 0 || st.Dropped != 0 {
						b.Fatalf("traced run recorded %d spans, dropped %d", st.Spans, st.Dropped)
					}
				}
			}
		})
	}
}

// BenchmarkAblationFrameEval compares the three conventional-simulation
// engines: bit-parallel (255 machines per batch), event-driven serial, and
// full-pass serial.
func BenchmarkAblationFrameEval(b *testing.B) {
	e, _ := circuits.SuiteEntryByName("sg641")
	c := e.Build()
	T := tgen.Random(c.NumInputs(), e.SeqLen, e.SeqSeed)
	faults := fault.CollapsedList(c)
	b.Run("bitparallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bitsim.Run(c, T, faults); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []string{"delta", "full"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s *seqsim.Simulator
				if mode == "delta" {
					s = seqsim.New(c)
				} else {
					s = seqsim.NewFullPass(c)
				}
				good, err := s.Run(T, nil, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.RunFaults(T, good, faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmStart measures what the service's cross-run cache saves:
// "setup" isolates simulator construction (compile + fault-free trace,
// the part a warm hit skips entirely), "run" measures a full whole-list
// simulation cold versus warm-started from a previous run's artifacts.
func BenchmarkWarmStart(b *testing.B) {
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	T := tgen.Random(c.NumInputs(), 96, 1)
	faults := fault.CollapsedList(c)
	base, err := core.NewSimulator(c, T, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	warm := core.Warm{CC: base.CC(), Good: base.Good()}

	b.Run("setup-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cir.Drop(c) // force a real compile, as for a first-seen netlist
			if _, err := core.NewSimulator(c, T, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("setup-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewSimulatorWarm(c, T, core.DefaultConfig(), warm); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []string{"run-cold", "run-warm"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := warm
				if mode == "run-cold" {
					cir.Drop(c)
					w = core.Warm{}
				}
				sim, err := core.NewSimulatorWarm(c, T, core.DefaultConfig(), w)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.RunParallel(faults, 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Total != len(faults) {
					b.Fatal("short run")
				}
			}
		})
	}
}
