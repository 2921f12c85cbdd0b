// Package bitsim implements bit-parallel three-valued fault simulation:
// 255 faulty machines plus the fault-free machine are simulated
// simultaneously, one per bit lane, using the classic two-word encoding
// of three-valued values widened to [4]uint64 words (cir.VV4). This is
// the standard single-fault-propagation speed-up the paper sets aside
// ("we do not consider methods to speed up the simulation process"); it
// accelerates the conventional-simulation stage and is validated
// lane-for-lane against the serial simulator.
//
// Every lane of a batch is a variation of the fault-free machine, so a
// frame evaluates only where the lanes differ from it: each worker's
// evaluator keeps an epoch-stamped overlay on the fault-free trace (a
// node nobody wrote reads through to its fault-free value, broadcast to
// every lane) and evaluates only the gates a lane-divergent value
// reaches, in level order (see evaluator and cir.Overlay). Frames where
// most gates diverge run a plain sweep over the same tables instead.
// The circuit structure and the lane-wise gate semantics come from the
// compiled IR (internal/cir); what stays here is fault injection, which
// is batch-specific: each batch carries a different 255-fault lane
// assignment.
package bitsim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/workpool"
	"repro/internal/xtrace"
)

// Lanes is the number of machines per batch: lane 0 is fault-free and
// the remaining lanes carry one fault each.
const Lanes = cir.Lanes4

// VV is the 256-lane three-valued vector (see cir.VV4 for the encoding).
type VV = cir.VV4

// laneWords is the number of uint64 words backing one VV.
const laneWords = 4

// stemForce accumulates per-node stem-fault injections.
type stemForce struct {
	maskOne  [laneWords]uint64 // lanes stuck at 1
	maskZero [laneWords]uint64 // lanes stuck at 0
}

// set marks lane k stuck at v.
func (s *stemForce) set(k uint, v logic.Val) {
	w, bit := k>>6, uint64(1)<<(k&63)
	if v == logic.One {
		s.maskOne[w] |= bit
	} else {
		s.maskZero[w] |= bit
	}
}

// apply injects the stem faults into a node value.
func (s *stemForce) apply(v VV) VV {
	for w := 0; w < laneWords; w++ {
		mask := s.maskOne[w] | s.maskZero[w]
		v.One[w] = v.One[w]&^mask | s.maskOne[w]
		v.Zero[w] = v.Zero[w]&^mask | s.maskZero[w]
	}
	return v
}

// evaluator is one worker's event-driven 256-lane simulator: the
// overlay, schedule and fault-injection tables are sized for the
// circuit once and reused by every batch the worker runs. It is not
// safe for concurrent use.
//
// A frame diverges from the fault-free trace only where a fault reaches.
// Exactness rests on gate determinism: a gate with no fault injected
// whose inputs carry the fault-free values on every active lane outputs
// the fault-free value on those lanes, so skipping it changes no lane
// that matters. Active lanes are the occupied, still-undetected ones; a
// detected lane's result is final and its values are never read again,
// so a value differing only there is no event.
type evaluator struct {
	// Positions is cc's position-ordered view: gate records, fanin and
	// fanout by position in cc.Order.
	*cir.Positions
	cc   *cir.CC
	good *seqsim.Trace

	// ov holds the node stamps, the touched list (which latch reads) and
	// the schedule over gate positions: vals[n] is live iff ov marks n,
	// or in a sweep frame (sweep set), where every node is written.
	ov    cir.Overlay
	vals  []VV
	sweep bool
	// base is the fault-free frame the overlay diverges from, bound per
	// frame and never written.
	base []logic.Val
	// active masks the occupied, undetected lanes. Every fold and compare
	// works on all laneWords words; values outside active are unspecified
	// and every read of them is masked by active (or by seenX, a subset).
	active laneSet

	// Fault injection of the bound batch. Lane k+1 carries the fault at
	// index idx[k] of the caller's list. stemAt[n] is 1 + the index in
	// forces of node n's stem injection (0: none); brAt[k] is 1 + the
	// index in brs of the branch injection on the gate input pin at
	// Fanin[k] (0: none). sites lists the positions of the gates
	// with a stem fault on their output or branch faults on their pins
	// (event seeds, every frame; a gate may repeat), qStems the
	// flip-flops whose Q node carries a stem fault. All of it is reset
	// sparsely from stemNodes and brPins when the batch ends.
	idx       []int32
	stemAt    []int32
	forces    []stemForce
	stemNodes []netlist.NodeID
	brAt      []int32
	brs       []stemForce
	brPins    []int32
	sites     []int32
	qStems    []int32

	// state[i] is flip-flop i's latched lane state where div[i] is set.
	// latched lists those flip-flops: the ones whose D value diverged
	// from the fault-free next state on an active lane. Every other
	// flip-flop holds its fault-free state.
	state   []VV
	div     []bool
	latched []int32

	// outs is writtenOutputs' scratch, sized for every output.
	outs []int32

	// seenX and passC are the condition (C) lane profile of a run that
	// asks for it: seenX marks the lanes whose effective present state
	// has held an X at some frame <= u (N_sv(u) > 0 for some u so far),
	// passC the lanes with an X output at a frame where the fault-free
	// output is binary, after an X state at or before that frame
	// (N_sv(u) > 0 and N_out(u) > 0 for some u).
	seenX, passC laneSet

	// evals counts the gates evaluated by the current batch.
	evals int64
}

// newEvaluator returns an evaluator over cc, reading the fault-free
// trace good.
func newEvaluator(cc *cir.CC, good *seqsim.Trace) *evaluator {
	pos := cc.Positions()
	return &evaluator{
		Positions: pos,
		cc:        cc,
		good:      good,
		ov:        cc.NewOverlay(),
		vals:      make([]VV, cc.NumNodes()),
		stemAt:    make([]int32, cc.NumNodes()),
		forces:    make([]stemForce, 0, Lanes-1),
		brAt:      make([]int32, len(pos.Fanin)),
		brs:       make([]stemForce, 0, Lanes-1),
		state:     make([]VV, cc.NumFFs()),
		div:       make([]bool, cc.NumFFs()),
		outs:      make([]int32, 0, cc.NumOutputs()),
	}
}

// load binds a batch: fault faults[idx[k]] occupies lane k+1.
func (e *evaluator) load(faults []fault.Fault, idx []int32) error {
	if len(idx) > Lanes-1 {
		return fmt.Errorf("bitsim: batch of %d faults exceeds %d lanes", len(idx), Lanes-1)
	}
	cc := e.cc
	e.idx = idx
	for k, i := range idx {
		f := faults[i]
		lane := uint(k + 1)
		if f.IsStem() {
			s := e.stemAt[f.Node]
			if s == 0 {
				e.forces = append(e.forces, stemForce{})
				s = int32(len(e.forces))
				e.stemAt[f.Node] = s
				e.stemNodes = append(e.stemNodes, f.Node)
				if d := cc.Driver[f.Node]; d != netlist.NoGate {
					e.sites = append(e.sites, e.cc.OrderPos[d])
				} else if i := cc.FFOf[f.Node]; i >= 0 {
					e.qStems = append(e.qStems, i)
				}
			}
			e.forces[s-1].set(lane, f.Stuck)
			continue
		}
		p := e.cc.OrderPos[f.Gate]
		pin := e.Gates[p].Lo + f.Pin
		if e.brAt[pin] == 0 {
			e.brs = append(e.brs, stemForce{})
			e.brAt[pin] = int32(len(e.brs))
			e.brPins = append(e.brPins, pin)
			e.sites = append(e.sites, p)
		}
		e.brs[e.brAt[pin]-1].set(lane, f.Stuck)
	}
	return nil
}

// unload resets the injection tables and latched state of the bound
// batch, leaving the evaluator ready for the next one.
func (e *evaluator) unload() {
	for _, id := range e.stemNodes {
		e.stemAt[id] = 0
	}
	for _, k := range e.brPins {
		e.brAt[k] = 0
	}
	for _, i := range e.latched {
		e.div[i] = false
	}
	e.stemNodes, e.brPins, e.sites, e.qStems, e.latched = e.stemNodes[:0], e.brPins[:0], e.sites[:0], e.qStems[:0], e.latched[:0]
	e.forces, e.brs = e.forces[:0], e.brs[:0]
}

// written reports whether node id holds a live value this frame;
// otherwise it carries its fault-free value on every active lane.
func (e *evaluator) written(id netlist.NodeID) bool {
	return e.sweep || e.ov.Live(id)
}

// overlay returns node id's lane values in an event frame. The result
// is read-only.
func (e *evaluator) overlay(id netlist.NodeID) *VV {
	if e.ov.Live(id) {
		return &e.vals[id]
	}
	return cir.LaneBroadcast(e.base[id])
}

// differs reports whether (one, zero) differs from node id's fault-free
// value on an active lane.
func (e *evaluator) differs(id netlist.NodeID, one, zero *[laneWords]uint64) bool {
	b, a := cir.LaneBroadcast(e.base[id]), &e.active
	// ^ and | share a precedence level: parenthesize both XORs.
	return ((one[0]^b.One[0])|(zero[0]^b.Zero[0]))&a[0]|
		((one[1]^b.One[1])|(zero[1]^b.Zero[1]))&a[1]|
		((one[2]^b.One[2])|(zero[2]^b.Zero[2]))&a[2]|
		((one[3]^b.One[3])|(zero[3]^b.Zero[3]))&a[3] != 0
}

// store records (one, zero) as node id's value and schedules every
// reading gate.
func (e *evaluator) store(id netlist.NodeID, one, zero *[laneWords]uint64) {
	v := &e.vals[id]
	v.One, v.Zero = *one, *zero
	e.ov.Mark(id)
	e.ov.PushReaders(id)
}

// seed loads node id (a primary input or flip-flop Q node) with lane
// values v; it is an event only when v differs from the fault-free value
// on an active lane.
func (e *evaluator) seed(id netlist.NodeID, v *VV) {
	if e.differs(id, &v.One, &v.Zero) {
		e.store(id, &v.One, &v.Zero)
	}
}

// Batches returns the number of (Lanes-1)-fault batches needed to
// simulate n faults.
func Batches(n int) int {
	return (n + Lanes - 2) / (Lanes - 1)
}

// laneSet is a 256-bit lane membership mask.
type laneSet [laneWords]uint64

// add marks lane k.
func (m *laneSet) add(k uint) { m[k>>6] |= 1 << (k & 63) }

// Stats counts the work of one whole-list bit-parallel run. Counters are
// accumulated atomically so parallel batches share one Stats value.
type Stats struct {
	// Batches is the number of 255-fault batches simulated.
	Batches int64 `json:"batches"`
	// Frames is the number of time frames actually evaluated across all
	// batches; SavedFrames counts frames skipped because every fault lane
	// of a batch was already resolved (the bit-parallel analogue of fault
	// dropping).
	Frames      int64 `json:"frames"`
	SavedFrames int64 `json:"saved_frames"`
	// GateEvals is the number of gates evaluated across all frames: only
	// the gates a lane-divergent value reaches in event frames, every
	// gate in sweep frames.
	GateEvals int64 `json:"gate_evals"`
}

// add folds one batch's frame and gate counts into s.
func (s *Stats) add(frames, saved, evals int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Batches, 1)
	atomic.AddInt64(&s.Frames, frames)
	atomic.AddInt64(&s.SavedFrames, saved)
	atomic.AddInt64(&s.GateEvals, evals)
}

// Run simulates the test sequence for every fault (in batches of 255),
// returning per-fault first-detection results identical to the serial
// simulator's seqsim.RunFaults.
func Run(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault) ([]seqsim.FaultResult, error) {
	results, _, err := RunStats(c, T, faults, 1)
	return results, err
}

// RunParallel is Run with the independent 255-fault batches distributed
// over up to `workers` goroutines. Results are identical to Run.
func RunParallel(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, workers int) ([]seqsim.FaultResult, error) {
	results, _, err := RunStats(c, T, faults, workers)
	return results, err
}

// RunStats is the instrumented entry point behind Run and RunParallel:
// it simulates the whole list over up to `workers` goroutines and
// additionally reports the work performed. The fault-free trace the
// lanes diverge from is simulated once per call.
func RunStats(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, workers int) ([]seqsim.FaultResult, Stats, error) {
	return runAll(context.TODO(), c, T, nil, faults, workers, Trace{}, nil)
}

// Trace carries the optional span instrumentation of a bit-parallel
// run: each 255-fault batch becomes one span keyed by its batch index
// (deterministic IDs regardless of worker count), parented under the
// caller's prescreen-stage span. The zero Trace disables spans.
type Trace struct {
	Tracer *xtrace.Tracer
	Parent xtrace.SpanID
}

// RunConditionC is the MOT prescreen's entry point: RunStats with
// per-batch span instrumentation that also classifies every undetected
// fault by the paper's necessary condition (C), from the frames its
// lane already evaluates. failsC[k] reports that fault k is undetected
// and fails (C) — no time unit u < L has an unspecified faulty state
// variable while some output at u' >= u is specified in the fault-free
// machine and unspecified in the faulty one — exactly the verdict the
// serial N_sv/N_out profile of the faulty trace yields. good is the
// fault-free trace of T with node values kept (seqsim keepNodes); nil
// simulates it. Once ctx is done no further batch starts and the call
// returns ctx.Err(); a panicking batch returns an error wrapping
// workpool.ErrPanic.
func RunConditionC(ctx context.Context, c *netlist.Circuit, T seqsim.Sequence, good *seqsim.Trace, faults []fault.Fault, workers int, tr Trace) (results []seqsim.FaultResult, failsC []bool, st Stats, err error) {
	failsC = make([]bool, len(faults))
	results, st, err = runAll(ctx, c, T, good, faults, workers, tr, failsC)
	if err != nil {
		return nil, nil, st, err
	}
	return results, failsC, st, nil
}

// runAll runs the batches on a workpool of up to `workers` goroutines,
// each with its own evaluator. failsC, when non-nil, receives the per-fault
// condition (C) verdict. Batches are cut from the list in site order
// (see siteOrder); results and verdicts land at the caller's indices.
func runAll(ctx context.Context, c *netlist.Circuit, T seqsim.Sequence, good *seqsim.Trace, faults []fault.Fault, workers int, tr Trace, failsC []bool) ([]seqsim.FaultResult, Stats, error) {
	var st Stats
	results := make([]seqsim.FaultResult, len(faults))
	if len(faults) == 0 {
		return results, st, nil
	}
	cc := cir.For(c)
	switch {
	case good == nil:
		var err error
		if good, err = seqsim.NewCompiled(cc).Run(T, nil, true); err != nil {
			return nil, st, fmt.Errorf("bitsim: fault-free simulation: %w", err)
		}
	case good.Len() < len(T) || len(good.Nodes) < len(T):
		return nil, st, fmt.Errorf("bitsim: fault-free trace covers %d frames with node values, sequence has %d",
			len(good.Nodes), len(T))
	}
	order := siteOrder(cc, faults)
	nBatches := Batches(len(faults))
	nw := workpool.Size(nBatches, workers)
	evs := make([]*evaluator, nw)
	bufs := make([]*xtrace.Buffer, nw)
	for w := range evs {
		evs[w] = newEvaluator(cc, good)
		if tr.Tracer != nil {
			bufs[w] = tr.Tracer.NewTrack(fmt.Sprintf("prescreen %02d", w))
		}
	}
	err := workpool.Run(ctx, nBatches, workers, func(w, bi int) error {
		start := bi * (Lanes - 1)
		end := min(start+Lanes-1, len(faults))
		sp := bufs[w].Begin("batch", tr.Parent, uint64(bi))
		bufs[w].AttrInt(sp, "faults", int64(end-start))
		err := evs[w].run(T, faults, order[start:end], results, failsC, &st)
		bufs[w].End(sp)
		return err
	}, func(w int) { bufs[w].Flush() })
	if err != nil {
		return nil, st, err
	}
	return results, st, nil
}

// siteOrder returns the indices of faults ordered by the position in
// cc.Order of each fault site's gate: a branch fault's gate, a stem
// fault's driver. Primary-input and flip-flop stems, which have no
// driver, come first; ties keep list order. Faults whose sites lie close
// in level order tend to diverge over overlapping gates, so a batch cut
// from this order evaluates fewer gates than one cut from the list
// order. Lanes are bitwise independent, so the order changes no result.
//
// Each entry packs key+1 above the index in an int64, so one integer
// sort orders every list.
func siteOrder(cc *cir.CC, faults []fault.Fault) []int32 {
	keys := make([]int64, len(faults))
	for k := range faults {
		keys[k] = int64(sitePos(cc, &faults[k])+1)<<32 | int64(k)
	}
	slices.Sort(keys)
	order := make([]int32, len(faults))
	for k, key := range keys {
		order[k] = int32(key) // the low half: the index
	}
	return order
}

// sitePos is fault f's siteOrder key: the position of its site's gate,
// or -1 for a stem fault on an undriven node.
func sitePos(cc *cir.CC, f *fault.Fault) int32 {
	if !f.IsStem() {
		return cc.OrderPos[f.Gate]
	}
	if d := cc.Driver[f.Node]; d != netlist.NoGate {
		return cc.OrderPos[d]
	}
	return -1
}

// run simulates one batch, the faults at indices idx (at most Lanes-1),
// and fills their entries of results, accumulating frame and gate counts
// into st (nil-safe). A non-nil failsC additionally receives their
// condition (C) verdicts.
//
// Each frame is either an event frame, evaluating only the gates a
// lane-divergent value reaches, or a sweep frame, evaluating every gate
// without the per-node overlay bookkeeping. A frame sweeps when more
// than half the gates were active in the previous one — fault sites or
// gates with an input that differed from the fault-free trace on an
// active lane, exactly the gates an event frame evaluates. That is the
// regime where the event bookkeeping costs more than it skips (on the
// smallest suite circuits nearly every gate is active in nearly every
// frame). The first frame is an event frame.
func (e *evaluator) run(T seqsim.Sequence, faults []fault.Fault, idx []int32, results []seqsim.FaultResult, failsC []bool, st *Stats) error {
	if err := e.load(faults, idx); err != nil {
		return err
	}
	defer e.unload()
	cc := e.cc
	// active starts as every occupied fault lane; once every one is
	// resolved the remaining frames cannot change any result (the serial
	// simulator drops faults the same way).
	e.active = laneSet{}
	for k, i := range idx {
		results[i] = seqsim.FaultResult{Fault: faults[i]}
		e.active.add(uint(k + 1))
	}
	// The condition (C) lane profile is kept only when failsC asks for
	// it. The all-X power-up state usually puts every lane into seenX at
	// frame 0, which ends the per-FF scan.
	cond := failsC != nil
	scanX := cond
	e.seenX, e.passC = laneSet{}, laneSet{}
	e.evals = 0
	sweep := false
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return fmt.Errorf("bitsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		e.beginFrame(e.good.Nodes[u], sweep)
		var busy int
		if sweep {
			busy = e.sweepFrame(pat)
		} else {
			busy = e.eventFrame(pat)
		}
		if scanX {
			scanX = e.scanX()
		}
		outs := e.writtenOutputs()
		e.detect(u, outs, results)
		if cond {
			e.markC(outs)
		}
		if e.active == (laneSet{}) {
			// Early exit: the remaining frames cannot change any result.
			st.add(int64(u+1), int64(len(T)-u-1), e.evals)
			return nil
		}
		e.latch()
		sweep = 2*busy > len(e.Gates)
	}
	st.add(int64(len(T)), 0, e.evals)
	if cond {
		for k, i := range idx {
			lane := uint(k + 1)
			failsC[i] = !results[i].Detected && e.passC[lane>>6]&(1<<(lane&63)) == 0
		}
	}
	return nil
}

// beginFrame starts a frame over the fault-free node values base: the
// overlay empties (epoch bump, no clearing).
func (e *evaluator) beginFrame(base []logic.Val, sweep bool) {
	e.base, e.sweep = base, sweep
	e.ov.Begin()
}

// eventFrame seeds the frame's divergences — stem-faulted primary
// inputs, flip-flops whose latched state diverged or whose Q node is
// stem-faulted, and every fault-site gate — and evaluates the gates
// they reach in level order. It returns the number of gates evaluated.
func (e *evaluator) eventFrame(pat seqsim.Pattern) int {
	cc := e.cc
	start := e.evals
	for i, id := range cc.Inputs {
		if s := e.stemAt[id]; s != 0 {
			v := e.forces[s-1].apply(cir.Broadcast4(pat[i]))
			e.seed(id, &v)
		}
	}
	for _, i := range e.latched {
		q := cc.FFQ[i]
		v := e.state[i]
		if s := e.stemAt[q]; s != 0 {
			v = e.forces[s-1].apply(v)
		}
		e.seed(q, &v)
	}
	for _, i := range e.qStems {
		if !e.div[i] {
			q := cc.FFQ[i]
			v := e.forces[e.stemAt[q]-1].apply(*cir.LaneBroadcast(e.base[q]))
			e.seed(q, &v)
		}
	}
	for _, p := range e.sites {
		e.ov.Push(p)
	}
	e.drain()
	return int(e.evals - start)
}

// drain evaluates every scheduled gate in ascending position order,
// feeding output changes back into the schedule. Pushes land only on
// later positions, which the ascending scan still reaches.
func (e *evaluator) drain() {
	for p := e.ov.Next(); p >= 0; p = e.ov.Next() {
		e.evals++
		one, zero := e.eval(p)
		if out := e.Gates[p].Out; e.differs(out, &one, &zero) {
			e.store(out, &one, &zero)
		}
	}
}

// sampleStride spaces the gates a sweep frame checks to estimate how
// many gates were active.
const sampleStride = 8

// sweepFrame loads every primary input and flip-flop and evaluates
// every gate in level order straight into vals, with no stamps or
// schedule; the fold is eval's, reading vals directly. It returns the
// number of active gates — fault sites and gates with an input that
// differs from the fault-free trace on an active lane — estimated from
// every sampleStride-th gate.
//
// The fold is written out here rather than calling eval: eval reads
// each input through the overlay's stamp check, and routing sweep
// frames through it made the prescreen 17–29% slower on sg208, sg298,
// sg344 and sg420 at 64 patterns (a probe on a 2-vCPU host).
func (e *evaluator) sweepFrame(pat seqsim.Pattern) int {
	cc := e.cc
	for i, id := range cc.Inputs {
		v := &e.vals[id]
		*v = *cir.LaneBroadcast(pat[i])
		if s := e.stemAt[id]; s != 0 {
			*v = e.forces[s-1].apply(*v)
		}
	}
	for i, q := range cc.FFQ {
		v := &e.vals[q]
		if e.div[i] {
			*v = e.state[i]
		} else {
			*v = *cir.LaneBroadcast(e.base[q])
		}
		if s := e.stemAt[q]; s != 0 {
			*v = e.forces[s-1].apply(*v)
		}
	}
	var tmp VV
	for p := range e.Gates {
		g := &e.Gates[p]
		var one, zero [laneWords]uint64
		switch g.Op {
		case logic.And, logic.Nand:
			one = allLanes
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				one[0] &= in.One[0]
				one[1] &= in.One[1]
				one[2] &= in.One[2]
				one[3] &= in.One[3]
				zero[0] |= in.Zero[0]
				zero[1] |= in.Zero[1]
				zero[2] |= in.Zero[2]
				zero[3] |= in.Zero[3]
			}
		case logic.Xor, logic.Xnor:
			zero = allLanes
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				one, zero = [laneWords]uint64{
					one[0]&in.Zero[0] | zero[0]&in.One[0],
					one[1]&in.Zero[1] | zero[1]&in.One[1],
					one[2]&in.Zero[2] | zero[2]&in.One[2],
					one[3]&in.Zero[3] | zero[3]&in.One[3],
				}, [laneWords]uint64{
					one[0]&in.One[0] | zero[0]&in.Zero[0],
					one[1]&in.One[1] | zero[1]&in.Zero[1],
					one[2]&in.One[2] | zero[2]&in.Zero[2],
					one[3]&in.One[3] | zero[3]&in.Zero[3],
				}
			}
		case logic.Const0:
			zero = allLanes
		case logic.Const1:
			one = allLanes
		default: // Or, Nor, Buf, Not: the or-fold
			zero = allLanes
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				one[0] |= in.One[0]
				one[1] |= in.One[1]
				one[2] |= in.One[2]
				one[3] |= in.One[3]
				zero[0] &= in.Zero[0]
				zero[1] &= in.Zero[1]
				zero[2] &= in.Zero[2]
				zero[3] &= in.Zero[3]
			}
		}
		if g.Op != logic.Const0 && g.Op != logic.Const1 && g.Op.Inverting() {
			one, zero = zero, one
		}
		v := &e.vals[g.Out]
		v.One, v.Zero = one, zero
		if s := e.stemAt[g.Out]; s != 0 {
			*v = e.forces[s-1].apply(*v)
		}
	}
	e.evals += int64(len(e.Gates))
	hit, samples := 0, 0
	for p := 0; p < len(e.Gates); p += sampleStride {
		samples++
		g := &e.Gates[p]
		if e.stemAt[g.Out] != 0 {
			hit++
			continue
		}
		for k := g.Lo; k < g.Hi; k++ {
			id := e.Fanin[k]
			if v := &e.vals[id]; e.brAt[k] != 0 || e.differs(id, &v.One, &v.Zero) {
				hit++
				break
			}
		}
	}
	return hit * len(e.Gates) / max(samples, 1)
}

// allLanes is a lane word array with every bit set.
var allLanes = [laneWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// eval evaluates the gate at position p, injecting the batch's branch
// faults on its pins and stem faults on its output. The fold is inlined
// per operator and written out over all laneWords words: this is the hot
// core of the whole prescreen, and a generic fold's per-gate constructor
// and per-fanin call overhead dominate it otherwise. Words without
// occupied lanes are folded too; every read of them is masked by active,
// and each lane is computed from its own bits alone. Branch-fault pins
// are patched into a local copy of the read value.
func (e *evaluator) eval(p int) (one, zero [laneWords]uint64) {
	g := &e.Gates[p]
	var tmp VV
	switch g.Op {
	case logic.And, logic.Nand:
		one = allLanes
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			one[0] &= in.One[0]
			one[1] &= in.One[1]
			one[2] &= in.One[2]
			one[3] &= in.One[3]
			zero[0] |= in.Zero[0]
			zero[1] |= in.Zero[1]
			zero[2] |= in.Zero[2]
			zero[3] |= in.Zero[3]
		}
	case logic.Xor, logic.Xnor:
		zero = allLanes
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			one, zero = [laneWords]uint64{
				one[0]&in.Zero[0] | zero[0]&in.One[0],
				one[1]&in.Zero[1] | zero[1]&in.One[1],
				one[2]&in.Zero[2] | zero[2]&in.One[2],
				one[3]&in.Zero[3] | zero[3]&in.One[3],
			}, [laneWords]uint64{
				one[0]&in.One[0] | zero[0]&in.Zero[0],
				one[1]&in.One[1] | zero[1]&in.Zero[1],
				one[2]&in.One[2] | zero[2]&in.Zero[2],
				one[3]&in.One[3] | zero[3]&in.Zero[3],
			}
		}
	case logic.Const0:
		zero = allLanes
	case logic.Const1:
		one = allLanes
	default: // Or, Nor, Buf, Not: the or-fold
		zero = allLanes
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			one[0] |= in.One[0]
			one[1] |= in.One[1]
			one[2] |= in.One[2]
			one[3] |= in.One[3]
			zero[0] &= in.Zero[0]
			zero[1] &= in.Zero[1]
			zero[2] &= in.Zero[2]
			zero[3] &= in.Zero[3]
		}
	}
	if g.Op != logic.Const0 && g.Op != logic.Const1 && g.Op.Inverting() {
		one, zero = zero, one
	}
	if s := e.stemAt[g.Out]; s != 0 {
		v := e.forces[s-1].apply(VV{One: one, Zero: zero})
		one, zero = v.One, v.Zero
	}
	return one, zero
}

// scanX adds to seenX the active lanes whose loaded present state holds
// an X, and reports whether some active lane is still missing from it.
// A flip-flop nobody wrote holds its fault-free state on every active
// lane.
func (e *evaluator) scanX() bool {
	for _, q := range e.cc.FFQ {
		if !e.written(q) {
			if e.base[q] == logic.X {
				for w := range e.seenX {
					e.seenX[w] |= e.active[w]
				}
			}
			continue
		}
		v := &e.vals[q]
		for w := range e.seenX {
			e.seenX[w] |= ^(v.One[w] | v.Zero[w]) & e.active[w]
		}
	}
	for w := range e.active {
		if e.active[w]&^e.seenX[w] != 0 {
			return true
		}
	}
	return false
}

// writtenOutputs returns the positions in cc.Outputs of the outputs
// written this frame, ascending: every output in a sweep frame, the
// touched ones in an event frame. An output nobody wrote carries the
// fault-free value, so it can neither mismatch nor hold an X where the
// fault-free value is binary.
func (e *evaluator) writtenOutputs() []int32 {
	outs := e.outs[:0]
	if e.sweep {
		for j := range e.cc.Outputs {
			outs = append(outs, int32(j))
		}
	} else {
		for _, n := range e.ov.Touched() {
			if j := e.cc.OutPos[n]; j >= 0 {
				outs = append(outs, j)
			}
		}
		slices.Sort(outs)
	}
	e.outs = outs
	return outs
}

// detect records frame u's detections on the written outputs outs
// (ascending positions): active lanes whose output is the binary
// complement of a binary fault-free output. Detected lanes leave the
// active set; the first output in declaration order is the detection
// site, as in the serial simulator.
func (e *evaluator) detect(u int, outs []int32, results []seqsim.FaultResult) {
	for _, j := range outs {
		id := e.cc.Outputs[j]
		v := &e.vals[id]
		var mism *[laneWords]uint64
		switch e.base[id] {
		case logic.One:
			mism = &v.Zero
		case logic.Zero:
			mism = &v.One
		default:
			continue
		}
		for w := range e.active {
			detected := mism[w] & e.active[w]
			e.active[w] &^= detected
			for detected != 0 {
				bit := uint(bits.TrailingZeros64(detected))
				detected &^= 1 << bit
				r := &results[e.idx[uint(w)<<6+bit-1]]
				r.Detected = true
				r.At = seqsim.Detection{Time: u, Output: int(j)}
			}
		}
	}
}

// markC adds to passC the seenX lanes with an X on a written primary
// output (outs) whose fault-free value is binary.
func (e *evaluator) markC(outs []int32) {
	for _, j := range outs {
		id := e.cc.Outputs[j]
		if e.base[id] == logic.X {
			continue
		}
		v := &e.vals[id]
		for w := range e.passC {
			e.passC[w] |= ^(v.One[w] | v.Zero[w]) & e.seenX[w]
		}
	}
}

// latch records the next state: the flip-flops whose D value diverged
// from the fault-free next state on an active lane keep their lane
// state, every other one returns to the fault-free trace. Stem faults on
// Q nodes are injected when the state is loaded. An event frame stores
// exactly the nodes that diverge, so only its touched D nodes can latch
// a lane state; a sweep frame writes every node, so every D node is
// compared.
func (e *evaluator) latch() {
	cc := e.cc
	for _, i := range e.latched {
		e.div[i] = false
	}
	e.latched = e.latched[:0]
	if !e.sweep {
		for _, n := range e.ov.Touched() {
			if i := cc.DOf[n]; i >= 0 {
				e.latchFF(i, n)
			}
		}
		return
	}
	for i, d := range cc.FFD {
		if v := &e.vals[d]; e.differs(d, &v.One, &v.Zero) {
			e.latchFF(int32(i), d)
		}
	}
}

// latchFF keeps flip-flop i's lane state, the value of its D node d.
func (e *evaluator) latchFF(i int32, d netlist.NodeID) {
	e.state[i] = e.vals[d]
	e.div[i] = true
	e.latched = append(e.latched, i)
}
