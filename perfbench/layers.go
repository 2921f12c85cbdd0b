package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitsim"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/xtrace"
)

// workers is the thread count of every batch run and of the layered
// run: the benchmark targets a 2-vCPU host.
const workers = 2

// counts are the simulated numbers a run must reproduce exactly.
type counts struct {
	Faults     int `json:"faults"`
	Conv       int `json:"conventional"`
	MOT        int `json:"mot"`
	PrunedC    int `json:"pruned_c"`
	Pairs      int `json:"pairs"`
	Expansions int `json:"expansions"`
	Identified int `json:"identified"`
}

func countsOf(r *report.RunReport) counts {
	return counts{Faults: r.Faults, Conv: r.Conv, MOT: r.MOT, PrunedC: r.PrunedC,
		Pairs: r.Pairs, Expansions: r.Expansions, Identified: r.Identified}
}

// tally folds one per-fault outcome into c the way core.Result does.
func (c *counts) tally(o core.FaultOutcome) {
	switch {
	case o.Outcome == core.DetectedConventional:
		c.Conv++
	case o.Outcome == core.DetectedMOT:
		c.MOT++
		if o.ByIdentification {
			c.Identified++
		}
	case o.FailedConditionC:
		c.PrunedC++
	}
	c.Pairs += o.Pairs
	c.Expansions += o.Expansions
}

// convCounts counts the conventional detections of a bitsim run.
func convCounts(rs []seqsim.FaultResult) counts {
	c := counts{Faults: len(rs)}
	for _, r := range rs {
		if r.Detected {
			c.Conv++
		}
	}
	return c
}

// input is one freshly built simulation input.
type input struct {
	c      *netlist.Circuit
	T      seqsim.Sequence
	faults []fault.Fault
	// sim is the MOT simulator, after its fault-free simulation; nil for
	// inputs built for conventional simulation only.
	sim *core.Simulator
}

// spanned runs f inside a span named name under parent on buf; a nil
// buf records nothing.
func spanned[T any](buf *xtrace.Buffer, name string, parent xtrace.SpanID, f func() (T, error)) (T, error) {
	ref := buf.Begin(name, parent, 0)
	v, err := f()
	buf.End(ref)
	return v, err
}

// source makes a circuit: span names the layer call that does it.
type source struct {
	span string
	make func() (*netlist.Circuit, error)
}

// generated is the source of a synthetic circuit.
func generated(p circuits.GenParams) source {
	return source{"circuits.generate", func() (*netlist.Circuit, error) { return circuits.Generate(p) }}
}

// build makes the circuit and its random vectors, collapses the fault
// list, compiles the IR and, for MOT inputs, builds the simulator with
// its fault-free trace, each step a span on buf. Every call makes a new
// circuit: cir.For memoizes the compiled IR and its cone cache by
// circuit pointer, so reusing one would turn repeats warm.
func build(src source, patterns int, seed int64, mot bool, buf *xtrace.Buffer, parent xtrace.SpanID) (*input, error) {
	in := &input{}
	var err error
	in.c, err = spanned(buf, src.span, parent, func() (*netlist.Circuit, error) {
		c, err := src.make()
		if err == nil {
			in.T = tgen.Random(c.NumInputs(), patterns, seed)
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}
	in.faults, _ = spanned(buf, "fault.collapse", parent, func() ([]fault.Fault, error) {
		return fault.CollapsedList(in.c), nil
	})
	spanned(buf, "cir.compile", parent, func() (*cir.CC, error) { return cir.For(in.c), nil })
	if mot {
		in.sim, err = spanned(buf, "seqsim.good_sim", parent, func() (*core.Simulator, error) {
			return core.NewSimulator(in.c, in.T, core.DefaultConfig())
		})
	}
	if err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

// release drops the circuit's compiled IR from the process-wide memo.
func (in *input) release() { cir.Drop(in.c) }

// layered simulates in.faults by driving the layers one public call at a
// time, in the order RunParallel uses them: the bit-parallel prescreen,
// then SimulateFault for each survivor on `workers` goroutines, each call
// a span. Its counts must equal those of RunParallel on the same input.
func layered(in *input, buf *xtrace.Buffer, parent xtrace.SpanID) (counts, error) {
	c := counts{Faults: len(in.faults)}
	pre, err := spanned(buf, "bitsim.prescreen", parent, func() ([]seqsim.FaultResult, error) {
		return bitsim.RunParallel(in.c, in.T, in.faults, workers)
	})
	if err != nil {
		return c, err
	}
	var todo []int
	for k, r := range pre {
		if r.Detected {
			c.Conv++
		} else {
			todo = append(todo, k)
		}
	}
	_, err = spanned(buf, "core.mot", parent, func() (struct{}, error) {
		outs, err := simulateAll(in, todo, buf.Tracer(), xtrace.DeriveID(parent, "core.mot", 0))
		for _, o := range outs {
			c.tally(o)
		}
		return struct{}{}, err
	})
	return c, err
}

// simulateAll runs SimulateFault for the faults indexed by todo on
// `workers` simulators sharing in.sim's compiled IR and fault-free trace.
func simulateAll(in *input, todo []int, tr *xtrace.Tracer, parent xtrace.SpanID) ([]core.FaultOutcome, error) {
	sims := []*core.Simulator{in.sim}
	for len(sims) < workers {
		s, err := core.NewSimulatorWarm(in.c, in.T, in.sim.Config(), core.Warm{CC: in.sim.CC(), Good: in.sim.Good()})
		if err != nil {
			return nil, err
		}
		sims = append(sims, s)
	}
	outs := make([]core.FaultOutcome, len(todo))
	errs := make([]error, len(sims))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, sim := range sims {
		wg.Add(1)
		go func(w int, sim *core.Simulator) {
			defer wg.Done()
			buf := tr.NewTrack(fmt.Sprintf("worker %d", w))
			defer buf.Flush()
			for {
				t := int(next.Add(1) - 1)
				if t >= len(todo) {
					return
				}
				k := todo[t]
				ref := buf.Begin("core.simulate_fault", parent, uint64(k))
				o, err := sim.SimulateFault(in.faults[k])
				buf.End(ref)
				if err != nil {
					errs[w] = fmt.Errorf("fault %s: %w", in.faults[k].Name(in.c), err)
					return
				}
				outs[t] = o
			}
		}(w, sim)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// convCheck compares the conventional verdict of every stride-th fault
// against an independent serial three-valued simulation (seqsim), the
// engine the bit-parallel prescreen must agree with.
func convCheck(in *input, detected func(k int) bool) error {
	const sample = 600
	stride := max(1, len(in.faults)/sample)
	var picked []fault.Fault
	for k := 0; k < len(in.faults); k += stride {
		picked = append(picked, in.faults[k])
	}
	sim := seqsim.NewCompiled(cir.For(in.c))
	good, err := sim.Run(in.T, nil, true)
	if err != nil {
		return err
	}
	res, err := sim.RunFaults(in.T, good, picked)
	if err != nil {
		return err
	}
	for i, r := range res {
		if k := i * stride; r.Detected != detected(k) {
			return fmt.Errorf("fault %s: serial conventional simulation says detected=%v", in.faults[k].Name(in.c), r.Detected)
		}
	}
	return nil
}
