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
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
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
	// active masks the occupied, undetected lanes; nw is the number of
	// lane words holding occupied lanes. Words at and above nw are never
	// read, and values outside active are unspecified.
	active laneSet
	nw     int

	// Fault injection of the bound batch. stemAt[n] is 1 + the index in
	// forces of node n's stem injection (0: none); brAt[k] is 1 + the
	// index in brs of the branch injection on the gate input pin at
	// Fanin[k] (0: none). sites lists the positions of the gates
	// with a stem fault on their output or branch faults on their pins
	// (event seeds, every frame; a gate may repeat), qStems the
	// flip-flops whose Q node carries a stem fault. All of it is reset
	// sparsely from stemNodes and brPins when the batch ends.
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
	}
}

// load binds a batch: fault k occupies lane k+1.
func (e *evaluator) load(faults []fault.Fault) error {
	if len(faults) > Lanes-1 {
		return fmt.Errorf("bitsim: batch of %d faults exceeds %d lanes", len(faults), Lanes-1)
	}
	cc := e.cc
	for k, f := range faults {
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

// value returns node id's lane values this frame. The result is
// read-only.
func (e *evaluator) value(id netlist.NodeID) *VV {
	if e.sweep {
		return &e.vals[id]
	}
	return e.overlay(id)
}

// overlay is value in an event frame.
func (e *evaluator) overlay(id netlist.NodeID) *VV {
	if e.ov.Live(id) {
		return &e.vals[id]
	}
	return cir.LaneBroadcast(e.base[id])
}

// differs reports whether (one, zero) differs from node id's fault-free
// value on an active lane.
func (e *evaluator) differs(id netlist.NodeID, one, zero *[laneWords]uint64) bool {
	b := cir.LaneBroadcast(e.base[id])
	diff := uint64(0)
	for w := 0; w < e.nw; w++ {
		// ^ and | share a precedence level: parenthesize both XORs.
		diff |= ((one[w] ^ b.One[w]) | (zero[w] ^ b.Zero[w])) & e.active[w]
	}
	return diff != 0
}

// store records (one, zero) as node id's value and schedules every
// reading gate.
func (e *evaluator) store(id netlist.NodeID, one, zero *[laneWords]uint64) {
	v := &e.vals[id]
	for w := 0; w < e.nw; w++ {
		v.One[w], v.Zero[w] = one[w], zero[w]
	}
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
	return runAll(c, T, nil, faults, workers, Trace{}, nil)
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
// simulates it.
func RunConditionC(c *netlist.Circuit, T seqsim.Sequence, good *seqsim.Trace, faults []fault.Fault, workers int, tr Trace) (results []seqsim.FaultResult, failsC []bool, st Stats, err error) {
	failsC = make([]bool, len(faults))
	results, st, err = runAll(c, T, good, faults, workers, tr, failsC)
	if err != nil {
		return nil, nil, st, err
	}
	return results, failsC, st, nil
}

// runAll distributes the batches over up to `workers` goroutines, each
// with its own evaluator. failsC, when non-nil, receives the per-fault
// condition (C) verdict.
func runAll(c *netlist.Circuit, T seqsim.Sequence, good *seqsim.Trace, faults []fault.Fault, workers int, tr Trace, failsC []bool) ([]seqsim.FaultResult, Stats, error) {
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
	nBatches := Batches(len(faults))
	workers = min(workers, nBatches)
	if workers < 2 {
		buf := tr.Tracer.NewTrack("prescreen")
		defer buf.Flush()
		e := newEvaluator(cc, good)
		for start := 0; start < len(faults); start += Lanes - 1 {
			end := min(start+Lanes-1, len(faults))
			sp := buf.Begin("batch", tr.Parent, uint64(start/(Lanes-1)))
			buf.AttrInt(sp, "faults", int64(end-start))
			err := e.run(T, faults[start:end], results[start:end], part(failsC, start, end), &st)
			buf.End(sp)
			if err != nil {
				return nil, st, err
			}
		}
		return results, st, nil
	}
	errs := make([]error, workers)
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf *xtrace.Buffer
			if tr.Tracer != nil {
				buf = tr.Tracer.NewTrack(fmt.Sprintf("prescreen %02d", w))
				defer buf.Flush()
			}
			e := newEvaluator(cc, good)
			for {
				bi := int(atomic.AddInt64(&next, 1))
				if bi >= nBatches {
					return
				}
				start := bi * (Lanes - 1)
				end := min(start+Lanes-1, len(faults))
				sp := buf.Begin("batch", tr.Parent, uint64(bi))
				buf.AttrInt(sp, "faults", int64(end-start))
				err := e.run(T, faults[start:end], results[start:end], part(failsC, start, end), &st)
				buf.End(sp)
				if err != nil {
					errs[w] = err
					// Drain the pool: push the shared index past the end so
					// idle workers stop claiming batches.
					atomic.StoreInt64(&next, int64(nBatches))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	return results, st, nil
}

// part returns v[start:end], or nil for a nil v.
func part(v []bool, start, end int) []bool {
	if v == nil {
		return nil
	}
	return v[start:end]
}

// run simulates one batch of at most Lanes-1 faults and fills results
// (one per fault lane), accumulating frame and gate counts into st
// (nil-safe). A non-nil failsC (one per fault lane) additionally
// receives the condition (C) verdict.
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
func (e *evaluator) run(T seqsim.Sequence, group []fault.Fault, results []seqsim.FaultResult, failsC []bool, st *Stats) error {
	if err := e.load(group); err != nil {
		return err
	}
	defer e.unload()
	cc := e.cc
	for k := range results {
		results[k] = seqsim.FaultResult{Fault: group[k]}
	}
	// active starts as every occupied fault lane; once every one is
	// resolved the remaining frames cannot change any result (the serial
	// simulator drops faults the same way).
	e.active = laneSet{}
	for k := range results {
		e.active.add(uint(k + 1))
	}
	// Lanes above len(group) are never occupied, so a partial batch (the
	// tail of every fault list) evaluates only the words that hold lanes.
	e.nw = (len(results) + 1 + 63) >> 6
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
		e.detect(u, results)
		if cond {
			e.markC()
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
	for k := range failsC {
		lane := uint(k + 1)
		failsC[k] = !results[k].Detected && e.passC[lane>>6]&(1<<(lane&63)) == 0
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
func (e *evaluator) sweepFrame(pat seqsim.Pattern) int {
	cc, nw := e.cc, e.nw
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
	const allBits = ^uint64(0)
	var tmp VV
	for p := range e.Gates {
		g := &e.Gates[p]
		var one, zero [laneWords]uint64
		switch g.Op {
		case logic.And, logic.Nand:
			for w := 0; w < nw; w++ {
				one[w] = allBits
			}
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				for w := 0; w < nw; w++ {
					one[w] &= in.One[w]
					zero[w] |= in.Zero[w]
				}
			}
		case logic.Xor, logic.Xnor:
			for w := 0; w < nw; w++ {
				zero[w] = allBits
			}
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				for w := 0; w < nw; w++ {
					o := one[w]&in.Zero[w] | zero[w]&in.One[w]
					zero[w] = one[w]&in.One[w] | zero[w]&in.Zero[w]
					one[w] = o
				}
			}
		case logic.Const0:
			for w := 0; w < nw; w++ {
				zero[w] = allBits
			}
		case logic.Const1:
			for w := 0; w < nw; w++ {
				one[w] = allBits
			}
		default: // Or, Nor, Buf, Not: the or-fold
			for w := 0; w < nw; w++ {
				zero[w] = allBits
			}
			for k := g.Lo; k < g.Hi; k++ {
				in := &e.vals[e.Fanin[k]]
				if j := e.brAt[k]; j != 0 {
					tmp = e.brs[j-1].apply(*in)
					in = &tmp
				}
				for w := 0; w < nw; w++ {
					one[w] |= in.One[w]
					zero[w] &= in.Zero[w]
				}
			}
		}
		if g.Op != logic.Const0 && g.Op != logic.Const1 && g.Op.Inverting() {
			one, zero = zero, one
		}
		v := &e.vals[g.Out]
		if s := e.stemAt[g.Out]; s != 0 {
			f := &e.forces[s-1]
			for w := 0; w < nw; w++ {
				mask := f.maskOne[w] | f.maskZero[w]
				v.One[w] = one[w]&^mask | f.maskOne[w]
				v.Zero[w] = zero[w]&^mask | f.maskZero[w]
			}
		} else {
			for w := 0; w < nw; w++ {
				v.One[w], v.Zero[w] = one[w], zero[w]
			}
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

// eval evaluates the gate at position p over the live words, injecting
// the batch's branch faults on its pins and stem faults on its output.
// The fold is inlined per operator: this is the hot core of the whole
// prescreen, and the shared VV4Fold's per-gate constructor and
// per-fanin call overhead dominate it otherwise. Branch-fault pins are
// patched into a local copy of the read value, mirroring read.
func (e *evaluator) eval(p int) (one, zero [laneWords]uint64) {
	const allBits = ^uint64(0)
	nw := e.nw
	g := &e.Gates[p]
	var tmp VV
	switch g.Op {
	case logic.And, logic.Nand:
		for w := 0; w < nw; w++ {
			one[w] = allBits
		}
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			for w := 0; w < nw; w++ {
				one[w] &= in.One[w]
				zero[w] |= in.Zero[w]
			}
		}
	case logic.Xor, logic.Xnor:
		for w := 0; w < nw; w++ {
			zero[w] = allBits
		}
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			for w := 0; w < nw; w++ {
				o := one[w]&in.Zero[w] | zero[w]&in.One[w]
				zero[w] = one[w]&in.One[w] | zero[w]&in.Zero[w]
				one[w] = o
			}
		}
	case logic.Const0:
		for w := 0; w < nw; w++ {
			zero[w] = allBits
		}
	case logic.Const1:
		for w := 0; w < nw; w++ {
			one[w] = allBits
		}
	default: // Or, Nor, Buf, Not: the or-fold
		for w := 0; w < nw; w++ {
			zero[w] = allBits
		}
		for k := g.Lo; k < g.Hi; k++ {
			in := e.overlay(e.Fanin[k])
			if j := e.brAt[k]; j != 0 {
				tmp = e.brs[j-1].apply(*in)
				in = &tmp
			}
			for w := 0; w < nw; w++ {
				one[w] |= in.One[w]
				zero[w] &= in.Zero[w]
			}
		}
	}
	if g.Op != logic.Const0 && g.Op != logic.Const1 && g.Op.Inverting() {
		one, zero = zero, one
	}
	if s := e.stemAt[g.Out]; s != 0 {
		f := &e.forces[s-1]
		for w := 0; w < nw; w++ {
			mask := f.maskOne[w] | f.maskZero[w]
			one[w] = one[w]&^mask | f.maskOne[w]
			zero[w] = zero[w]&^mask | f.maskZero[w]
		}
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
		for w := 0; w < e.nw; w++ {
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

// detect records frame u's detections: active lanes whose output is the
// binary complement of a binary fault-free output. An output nobody
// wrote carries the fault-free value and cannot mismatch. Detected lanes
// leave the active set; the first output in declaration order is the
// detection site, as in the serial simulator.
func (e *evaluator) detect(u int, results []seqsim.FaultResult) {
	for j, id := range e.cc.Outputs {
		if !e.written(id) {
			continue
		}
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
		for w := 0; w < e.nw; w++ {
			detected := mism[w] & e.active[w]
			e.active[w] &^= detected
			for detected != 0 {
				bit := uint(bits.TrailingZeros64(detected))
				detected &^= 1 << bit
				k := uint(w)<<6 + bit
				results[k-1].Detected = true
				results[k-1].At = seqsim.Detection{Time: u, Output: j}
			}
		}
	}
}

// markC adds to passC the seenX lanes with an X on a primary output
// whose fault-free value is binary. An output nobody wrote carries that
// binary value.
func (e *evaluator) markC() {
	for _, id := range e.cc.Outputs {
		if e.base[id] == logic.X || !e.written(id) {
			continue
		}
		v := &e.vals[id]
		for w := 0; w < e.nw; w++ {
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
