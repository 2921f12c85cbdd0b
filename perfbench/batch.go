package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bitsim"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/xtrace"
)

// batchSpec is a whole-fault-list workload: one collapsed list, 64
// random patterns from each corpus vector set, 2 workers.
type batchSpec struct {
	name     string
	circuit  string // suite stand-in
	patterns int
	// mot selects the proposed MOT procedure (core.DefaultConfig,
	// RunParallel); otherwise only conventional three-valued simulation
	// runs (bitsim, as motfsim -method conventional).
	mot bool
}

// The workloads and why they were chosen:
//   - mot-resim: VV4 resimulation is its largest stage and it has the
//     most implication work of any suite circuit.
//   - mot-step0: step 0 (seqsim event evaluation plus condition (C))
//     dominates and implications are small; condition (C) moving into
//     the prescreen lanes must show its gain here.
//   - conv-only: bitsim does all the work while core, implic and step 0
//     are bypassed, so a cost moved into the prescreen shows undiluted.
var batchSpecs = map[string]batchSpec{
	"mot-resim": {"mot-resim", "sg5378", 64, true},
	"mot-step0": {"mot-step0", "sg15850", 64, true},
	"conv-only": {"conv-only", "sg35932", 64, false},
}

// corpus holds the seeds of the random vector sets every run cycles
// through, the same on every run seed. The whole-list work of one circuit
// differs a lot between vector sets (on sg5378 from 125k to 198k
// collected pairs), so vector sets drawn from the run seed would make
// runs of the same code differ by their inputs rather than by the code.
// The run seed draws what does not change the work: the rotation of the
// collapsed fault list, which moves the prescreen's 64-fault batch
// boundaries and the order in which the workers take faults, and the
// vector set the cycle starts with. Two vector sets let even the slowest
// workload (about 3.6 s a run on 2 vCPUs) time each one three times in
// a 25 s run.
var corpus = []int64{4, 5}

// order is what a run seed draws: the fault-list rotation, as a share of
// the list's length, and the corpus index the cycle starts at.
type order struct {
	rot   float64
	first int
}

func orderOf(seed int64) order {
	r := rand.New(rand.NewSource(seed))
	return order{rot: r.Float64(), first: r.Intn(len(corpus))}
}

// input returns the corpus index of a run's n-th whole-list run.
func (o order) input(n int) int { return (o.first + n) % len(corpus) }

// rotate returns fs rotated left by the order's share of its length.
// Every fault keeps its outcome; only the order of the work changes.
func (o order) rotate(fs []fault.Fault) []fault.Fault {
	k := int(o.rot * float64(len(fs)))
	return append(append([]fault.Fault(nil), fs[k:]...), fs[:k]...)
}

// expectedJSON records, per batch workload, the counts the seed commit
// produced on each corpus vector set. They hold on every run seed.
//
//go:embed expected.json
var expectedJSON []byte

// expectedCounts returns the recorded counts of each corpus input, or nil
// when the workload has none.
func expectedCounts(workload string) ([]counts, error) {
	var all map[string][]counts
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all[workload], nil
}

// sample is one measured whole-list run.
type sample struct {
	input       int // corpus index
	setup, wall time.Duration
	alloc       uint64 // bytes allocated by the run
	counts      counts
	rep         *report.RunReport // MOT workloads
	pre         bitsim.Stats      // conv-only
}

// measureOne builds a cold input and times one whole-list run. With
// check it also compares a sample of conventional verdicts against
// serial simulation, outside the timed window.
func (b batchSpec) measureOne(p circuits.GenParams, ord order, i int, check bool) (sample, error) {
	runtime.GC()
	start := time.Now()
	in, err := build(generated(p), b.patterns, corpus[i], b.mot, nil, 0)
	if err != nil {
		return sample{}, err
	}
	defer in.release()
	in.faults = ord.rotate(in.faults)
	s := sample{input: i, setup: time.Since(start)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var detected func(k int) bool
	if b.mot {
		res, err := in.sim.RunParallel(in.faults, workers, nil)
		s.wall = time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return s, err
		}
		rep := report.NewRunReport(res, "proposed", len(in.T), workers, s.wall)
		s.rep, s.counts = &rep, countsOf(&rep)
		detected = func(k int) bool { return res.Outcomes[k].Outcome == core.DetectedConventional }
	} else {
		res, st, err := bitsim.RunStats(in.c, in.T, in.faults, workers)
		s.wall = time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return s, err
		}
		s.pre, s.counts = st, convCounts(res)
		detected = func(k int) bool { return res[k].Detected }
	}
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	if check {
		if err := convCheck(in, detected); err != nil {
			return s, err
		}
	}
	return s, nil
}

// run measures the workload: cold whole-list runs back to back, cycling
// through the corpus, for the run's seconds; when traced, for half of
// them, and layer by layer under spans for the other half.
func (b batchSpec) run(o opts) (*outcome, error) {
	e, err := circuits.SuiteEntryByName(b.circuit)
	if err != nil {
		return nil, err
	}
	res := &outcome{metrics: map[string]float64{}}
	window, minReps := o.seconds, len(corpus)
	if o.traced {
		window, minReps = o.seconds/2, 1
	}
	want, err := expectedCounts(b.name)
	if err != nil {
		return nil, err
	}
	ord := orderOf(o.seed)
	var samples []sample
	// byInput holds the counts of each input measured so far; a repeat of
	// an input must reproduce them, and recorded counts must match.
	byInput := map[int]counts{}
	measure := func(label string, i int) (sample, bool) {
		res.attempted++
		ref, seen := byInput[i]
		s, err := b.measureOne(e.Params, ord, i, !seen)
		if err != nil {
			res.fail(o.out, 1, "%s %s: %v", b.name, label, err)
			return s, false
		}
		fmt.Fprintf(o.out, "%s (input %d): setup %.4f s, whole list %.4f s, %.1f faults/s, %.1f MB allocated\n",
			label, i, s.setup.Seconds(), s.wall.Seconds(), float64(s.counts.Faults)/s.wall.Seconds(), float64(s.alloc)/1e6)
		if !seen {
			byInput[i] = s.counts
			fmt.Fprintf(o.out, "counts of input %d: %+v\n", i, s.counts)
		}
		if i < len(want) {
			ref, seen = want[i], true
		}
		if seen && s.counts != ref {
			res.fail(o.out, 1, "%s counts %+v, want %+v", label, s.counts, ref)
		}
		return s, true
	}
	// A fresh process has yet to grow its heap; its first whole-list run
	// was often the slowest of a run, so one untimed run precedes the
	// window.
	if _, ok := measure("warm-up", ord.input(0)); !ok {
		return res, nil
	}
	for start := time.Now(); len(samples) < minReps || time.Since(start).Seconds() < window; {
		s, ok := measure(fmt.Sprintf("run %d", len(samples)), ord.input(len(samples)))
		if !ok {
			break
		}
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		return res, nil
	}
	if !o.traced {
		batchEndToEnd(samples, res.metrics)
		return res, nil
	}
	return res, b.runTraced(o, e.Params, ord, samples, byInput, res)
}

// batchEndToEnd computes the end-to-end metrics from untraced runs. Each
// measured input counts once, by the mean of its runs, so a run that ends
// part-way through a corpus cycle weighs no input twice. The throughputs
// divide the work of the inputs by their summed mean time, so each input
// weighs by its work.
func batchEndToEnd(samples []sample, m map[string]float64) {
	var setup []float64
	walls, allocs, faults := map[int][]float64{}, map[int][]float64{}, map[int]float64{}
	for _, s := range samples {
		setup = append(setup, s.setup.Seconds())
		walls[s.input] = append(walls[s.input], s.wall.Seconds())
		allocs[s.input] = append(allocs[s.input], float64(s.alloc)/1e6)
		faults[s.input] = float64(s.counts.Faults)
	}
	var wallMS []float64
	work, total, alloc := 0.0, 0.0, 0.0
	for i, ws := range walls {
		w := mean(ws)
		wallMS = append(wallMS, w*1e3)
		work += faults[i]
		total += w
		alloc += mean(allocs[i])
	}
	n := float64(len(walls))
	lat := summarize(wallMS)
	m["faults_per_s"] = work / total
	m["setup_s"] = median(setup)
	m["runs_per_s"] = n / total
	m["latency_p50_ms"] = lat.P50
	m["latency_p95_ms"] = lat.P95
	m["alloc_mb"] = alloc / n
	m["peak_rss_mb"] = peakRSSMB()
}

// runTraced drives the layers itself under spans for the second half of
// the run, on the inputs the untraced half measured, checks that it
// reproduces their counts, and fills the per-layer metrics.
func (b batchSpec) runTraced(o opts, p circuits.GenParams, ord order, samples []sample, byInput map[int]counts, res *outcome) error {
	m := res.metrics
	tr := xtrace.New(xtrace.Options{MaxSpans: 1 << 21})
	rt := startRuntimeWindow()
	var tracedMS []float64
	tracedFaults, tracedSeconds := 0.0, 0.0
	for start, i := time.Now(), 0; i < 1 || time.Since(start).Seconds() < o.seconds/2; i++ {
		res.attempted++
		runtime.GC()
		buf := tr.NewTrack(fmt.Sprintf("run %d", i))
		root := buf.Begin("bench.run", 0, uint64(i))
		buf.AttrInt(root, "req", int64(i))
		rootID := buf.ID(root)
		input := ord.input(i % len(byInput))
		in, err := build(generated(p), b.patterns, corpus[input], b.mot, buf, rootID)
		var got counts
		var wall time.Duration
		if err == nil {
			in.faults = ord.rotate(in.faults)
			t0 := time.Now()
			if b.mot {
				got, err = layered(in, buf, rootID)
			} else {
				got, err = spanned(buf, "bitsim.conventional", rootID, func() (counts, error) {
					rs, err := bitsim.RunParallel(in.c, in.T, in.faults, workers)
					return convCounts(rs), err
				})
			}
			wall = time.Since(t0)
			in.release()
		}
		buf.End(root)
		buf.Flush()
		if err != nil {
			res.fail(o.out, 1, "traced run %d: %v", i, err)
			break
		}
		if want := byInput[input]; got != want {
			res.fail(o.out, 1, "traced run %d counts %+v differ from untraced %+v", i, got, want)
		}
		tracedFaults += float64(got.Faults)
		tracedSeconds += wall.Seconds()
		tracedMS = append(tracedMS, float64(wall)/1e6)
	}
	rt.stop(m)

	spans, tracks := tr.Snapshot()
	spanLayers(spans, m, o.out)
	e2e := map[string]float64{}
	batchEndToEnd(samples, e2e)
	if len(tracedMS) > 0 {
		m["trace.overhead_faults_per_s"] = e2e["faults_per_s"] - tracedFaults/tracedSeconds
		m["trace.overhead_latency_p50_ms"] = median(tracedMS) - e2e["latency_p50_ms"]
	}
	if b.mot {
		var reps []*report.RunReport
		for _, s := range samples {
			reps = append(reps, s.rep)
		}
		stageLayers(reps, m)
	} else {
		var secs []float64
		for _, s := range samples {
			secs = append(secs, s.wall.Seconds())
		}
		st := samples[0].pre
		m["bitsim.prescreen_s"] = median(secs)
		m["bitsim.passes"] = float64(st.Batches)
		m["bitsim.frames"] = float64(st.Frames)
		m["bitsim.saved_frames"] = float64(st.SavedFrames)
		c := samples[0].counts
		dropped := ratio{float64(c.Conv), float64(c.Faults)}
		m["bitsim.drop_ratio"] = dropped.value()
		fmt.Fprintf(o.out, "bitsim.drop_ratio %s\n", dropped)
	}
	return finishSpans(o, spans, tracks)
}

// stageLayers sets the per-layer metrics that core's own stage
// accounting provides, each the median over the given run reports.
func stageLayers(reps []*report.RunReport, m map[string]float64) {
	med := func(f func(r *report.RunReport) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	const ns = 1e-9
	m["bitsim.prescreen_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.PrescreenNS) * ns })
	m["bitsim.passes"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.PrescreenPasses) })
	m["bitsim.frames"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.PrescreenFrames) })
	m["bitsim.saved_frames"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.PrescreenSavedFrames) })
	m["bitsim.drop_ratio"] = med(func(r *report.RunReport) float64 {
		return ratio{float64(r.Stages.PrescreenDropped), float64(r.Faults)}.value()
	})
	m["seqsim.step0_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.Step0NS) * ns })
	m["seqsim.event_frames"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.Sim.EventFrames) })
	m["seqsim.event_gate_evals"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.Sim.EventGateEvals) })
	m["seqsim.gate_evals_per_frame"] = med(func(r *report.RunReport) float64 {
		return ratio{float64(r.Stages.Sim.EventGateEvals), float64(r.Stages.Sim.EventFrames)}.value()
	})
	m["implic.imply_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ImplyNS) * ns })
	m["implic.imply_calls"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ImplyCalls) })
	m["core.pairs"] = med(func(r *report.RunReport) float64 { return float64(r.Pairs) })
	m["core.collect_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.CollectNS) * ns })
	m["core.expand_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ExpandNS) * ns })
	m["core.resim_s"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ResimNS) * ns })
	m["core.resim_vector_passes"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ResimVectorPasses) })
	m["core.resim_serial_fallbacks"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.ResimSerialFallbacks) })
	m["core.mot_faults"] = med(func(r *report.RunReport) float64 { return float64(r.Stages.MOTFaults) })
	m["core.expansions"] = med(func(r *report.RunReport) float64 { return float64(r.Expansions) })
	m["core.mot_yield"] = med(func(r *report.RunReport) float64 {
		return ratio{float64(r.MOT), float64(r.Stages.MOTFaults)}.value()
	})
	// Stage CPU is the summed SimulateFault time of all workers; what the
	// MOT stage's wall time times the workers leaves over is time workers
	// waited on the pool tail.
	faultCPU := func(r *report.RunReport) float64 {
		if r.Histograms == nil {
			return 0
		}
		return float64(r.Histograms.FaultTimeNS.Sum)
	}
	m["core.parallel_efficiency"] = med(func(r *report.RunReport) float64 {
		return ratio{faultCPU(r), float64(r.Stages.MOTNS) * float64(r.Workers)}.value()
	})
	m["core.unattributed_s"] = med(func(r *report.RunReport) float64 {
		st := r.Stages
		outside := r.ElapsedNS - st.PrescreenNS - st.MOTNS
		inside := faultCPU(r) - float64(st.Step0NS+st.CollectNS+st.ExpandNS+st.ResimNS)
		return (float64(outside) + inside) * ns
	})
}
