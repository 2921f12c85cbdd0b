// Package bitsim implements bit-parallel three-valued fault simulation:
// 255 faulty machines plus the fault-free machine are simulated
// simultaneously, one per bit lane, using the classic two-word encoding
// of three-valued values widened to [4]uint64 words (cir.VV4). This is
// the standard single-fault-propagation speed-up the paper sets aside
// ("we do not consider methods to speed up the simulation process"); it
// accelerates the conventional-simulation stage and is validated
// lane-for-lane against the serial simulator.
//
// The circuit structure and the lane-wise gate semantics come from the
// compiled IR (internal/cir): the frame loop walks the CSR arrays and
// every gate evaluates the cir.VV4 fold semantics, inlined over only
// the words that hold occupied lanes (partial batches narrow to one or
// two words). What stays here is fault injection — the dense per-node
// stem table and per-gate branch table are batch-specific (each batch
// carries a different 255-fault lane assignment), not circuit
// structure.
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
	any      bool
}

// set marks lane k stuck at v.
func (s *stemForce) set(k uint, v logic.Val) {
	w, bit := k>>6, uint64(1)<<(k&63)
	if v == logic.One {
		s.maskOne[w] |= bit
	} else {
		s.maskZero[w] |= bit
	}
	s.any = true
}

// apply injects the stem faults into a node value.
func (s *stemForce) apply(v VV) VV {
	if !s.any {
		return v
	}
	for w := 0; w < laneWords; w++ {
		mask := s.maskOne[w] | s.maskZero[w]
		v.One[w] = v.One[w]&^mask | s.maskOne[w]
		v.Zero[w] = v.Zero[w]&^mask | s.maskZero[w]
	}
	return v
}

// branchForce is one branch-fault injection at a gate input pin.
type branchForce struct {
	pin   int32
	force stemForce
}

// batch simulates one group of at most Lanes-1 faults.
type batch struct {
	cc     *cir.CC
	faults []fault.Fault
	// stems[id] is the accumulated stem-fault injection at node id; a
	// dense table indexed by NodeID keeps the per-gate, per-frame lookup
	// off the map path.
	stems []stemForce
	// branch[gi] lists the branch-fault injections at gate gi's pins.
	branch [][]branchForce
	vals   []VV
	state  []VV
	// seenX and passC are the condition (C) lane profile of a run that
	// asks for it (see run): seenX marks the lanes whose effective
	// present state has held an X at some frame <= u (N_sv(u) > 0 for
	// some u so far), passC the lanes with an X output at a frame where
	// the fault-free output is binary, after an X state at or before
	// that frame (N_sv(u) > 0 and N_out(u) > 0 for some u).
	seenX, passC laneSet
}

// newBatch prepares injection tables for a fault group.
func newBatch(c *netlist.Circuit, faults []fault.Fault) (*batch, error) {
	if len(faults) > Lanes-1 {
		return nil, fmt.Errorf("bitsim: batch of %d faults exceeds %d lanes", len(faults), Lanes-1)
	}
	cc := cir.For(c)
	b := &batch{
		cc:     cc,
		faults: faults,
		stems:  make([]stemForce, cc.NumNodes()),
		branch: make([][]branchForce, cc.NumGates()),
		vals:   make([]VV, cc.NumNodes()),
		state:  make([]VV, cc.NumFFs()),
	}
	for k, f := range faults {
		if f.IsStem() {
			b.stems[f.Node].set(uint(k+1), f.Stuck)
			continue
		}
		var force stemForce
		force.set(uint(k+1), f.Stuck)
		b.branch[f.Gate] = append(b.branch[f.Gate], branchForce{pin: f.Pin, force: force})
	}
	return b, nil
}

// read returns the value gate gi sees on pin pi of node id.
func (b *batch) read(gi netlist.GateID, pi int32, id netlist.NodeID) VV {
	v := b.vals[id]
	for i := range b.branch[gi] {
		if bf := &b.branch[gi][i]; bf.pin == pi {
			v = bf.force.apply(v)
		}
	}
	return v
}

// readPin is batch.read for the inlined gate fold in run: when any of
// the gate's branch injections sits on pin pi, the patched value is
// built in *tmp and returned; otherwise the unpatched in passes through.
func readPin(brs []branchForce, pi int32, in *VV, tmp *VV) *VV {
	patched := false
	for i := range brs {
		if bf := &brs[i]; bf.pin == pi {
			if !patched {
				*tmp = *in
				patched = true
			}
			*tmp = bf.force.apply(*tmp)
		}
	}
	if !patched {
		return in
	}
	return tmp
}

// evalGate streams gate gi's observed inputs through the shared
// lane-wise fold. run inlines the same semantics over the live words;
// evalGate is retained as the readable reference implementation the
// per-lane gate property test checks against logic.Eval (the inlined
// loop is itself checked lane-for-lane against the serial simulator by
// the whole-run cross-check tests).
func (b *batch) evalGate(gi netlist.GateID) VV {
	cc := b.cc
	fo := cir.StartVV4(cc.Ops[gi])
	lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
	for k := lo; k < hi; k++ {
		fo.Add(b.read(gi, k-lo, cc.Fanin[k]))
	}
	return fo.Result()
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
}

// add folds one batch's frame counts into s.
func (s *Stats) add(frames, saved int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Batches, 1)
	atomic.AddInt64(&s.Frames, frames)
	atomic.AddInt64(&s.SavedFrames, saved)
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
// additionally reports the work performed.
func RunStats(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, workers int) ([]seqsim.FaultResult, Stats, error) {
	return runAll(c, T, faults, workers, Trace{}, nil)
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
// serial N_sv/N_out profile of the faulty trace yields.
func RunConditionC(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, workers int, tr Trace) (results []seqsim.FaultResult, failsC []bool, st Stats, err error) {
	failsC = make([]bool, len(faults))
	results, st, err = runAll(c, T, faults, workers, tr, failsC)
	if err != nil {
		return nil, nil, st, err
	}
	return results, failsC, st, nil
}

// runAll distributes the batches over up to `workers` goroutines.
// failsC, when non-nil, receives the per-fault condition (C) verdict.
func runAll(c *netlist.Circuit, T seqsim.Sequence, faults []fault.Fault, workers int, tr Trace, failsC []bool) ([]seqsim.FaultResult, Stats, error) {
	var st Stats
	nBatches := Batches(len(faults))
	if workers > nBatches {
		workers = nBatches
	}
	results := make([]seqsim.FaultResult, len(faults))
	if workers < 2 {
		buf := tr.Tracer.NewTrack("prescreen")
		defer buf.Flush()
		for start := 0; start < len(faults); start += Lanes - 1 {
			end := min(start+Lanes-1, len(faults))
			sp := buf.Begin("batch", tr.Parent, uint64(start/(Lanes-1)))
			buf.AttrInt(sp, "faults", int64(end-start))
			err := runGroup(c, T, faults[start:end], results[start:end], part(failsC, start, end), &st)
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
			for {
				bi := int(atomic.AddInt64(&next, 1))
				if bi >= nBatches {
					return
				}
				start := bi * (Lanes - 1)
				end := min(start+Lanes-1, len(faults))
				sp := buf.Begin("batch", tr.Parent, uint64(bi))
				buf.AttrInt(sp, "faults", int64(end-start))
				err := runGroup(c, T, faults[start:end], results[start:end], part(failsC, start, end), &st)
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

// runGroup simulates one batch of at most Lanes-1 faults.
func runGroup(c *netlist.Circuit, T seqsim.Sequence, group []fault.Fault, results []seqsim.FaultResult, failsC []bool, st *Stats) error {
	b, err := newBatch(c, group)
	if err != nil {
		return err
	}
	return b.run(T, results, failsC, st)
}

// run simulates the batch and fills results (one per fault lane),
// accumulating frame counts into st (nil-safe). A non-nil failsC (one
// per fault lane) additionally receives the condition (C) verdict.
func (b *batch) run(T seqsim.Sequence, results []seqsim.FaultResult, failsC []bool, st *Stats) error {
	cc := b.cc
	for k := range results {
		results[k] = seqsim.FaultResult{Fault: b.faults[k]}
	}
	// Initial state: the power-up values (X for the standard unknown),
	// with stem faults on Q nodes injected when the state is loaded each
	// frame.
	for i := range b.state {
		b.state[i] = cir.Broadcast4(cc.FFInit[i])
	}
	// allFaults masks the occupied fault lanes; once every one is
	// resolved the remaining frames cannot change any result (the serial
	// simulator drops faults the same way).
	var allFaults, resolved laneSet
	for k := range results {
		allFaults.add(uint(k + 1))
	}
	// Lanes above len(faults) are never occupied, so a partial batch
	// (the tail of every fault list) evaluates only the words that hold
	// lanes. Words at and above nw keep stale frame values; nothing
	// below reads them — detection and the fold loops stop at nw, and
	// the full-width state latch only carries them back into equally
	// unread words.
	const allBits = ^uint64(0)
	nw := (len(results) + 1 + 63) >> 6
	// The condition (C) lane profile is kept only when failsC asks for
	// it. The all-X power-up state usually puts every lane into seenX at
	// frame 0, which ends the per-FF scan.
	cond := failsC != nil
	scanX := cond
	b.seenX, b.passC = laneSet{}, laneSet{}
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return fmt.Errorf("bitsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		for i, id := range cc.Inputs {
			b.vals[id] = b.stems[id].apply(cir.Broadcast4(pat[i]))
		}
		for i, q := range cc.FFQ {
			b.vals[q] = b.stems[q].apply(b.state[i])
		}
		if scanX {
			scanX = b.scanStateX(nw, &allFaults)
		}
		// The gate fold is inlined over the live words — this loop is
		// the hot core of the whole prescreen, and the shared VV4Fold's
		// per-gate constructor and per-fanin call overhead dominate it
		// otherwise. Branch-fault pins are patched into a local copy of
		// the read value, mirroring batch.read.
		var tmp VV
		for _, gi := range cc.Order {
			op := cc.Ops[gi]
			lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
			brs := b.branch[gi]
			var one, zero [laneWords]uint64
			switch op {
			case logic.And, logic.Nand:
				for w := 0; w < nw; w++ {
					one[w] = allBits
				}
				for k := lo; k < hi; k++ {
					in := &b.vals[cc.Fanin[k]]
					if len(brs) != 0 {
						in = readPin(brs, k-lo, in, &tmp)
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
				for k := lo; k < hi; k++ {
					in := &b.vals[cc.Fanin[k]]
					if len(brs) != 0 {
						in = readPin(brs, k-lo, in, &tmp)
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
				for k := lo; k < hi; k++ {
					in := &b.vals[cc.Fanin[k]]
					if len(brs) != 0 {
						in = readPin(brs, k-lo, in, &tmp)
					}
					for w := 0; w < nw; w++ {
						one[w] |= in.One[w]
						zero[w] &= in.Zero[w]
					}
				}
			}
			out := cc.GOut[gi]
			v := &b.vals[out]
			if op != logic.Const0 && op != logic.Const1 && op.Inverting() {
				one, zero = zero, one
			}
			if st := &b.stems[out]; st.any {
				for w := 0; w < nw; w++ {
					mask := st.maskOne[w] | st.maskZero[w]
					v.One[w] = one[w]&^mask | st.maskOne[w]
					v.Zero[w] = zero[w]&^mask | st.maskZero[w]
				}
			} else {
				for w := 0; w < nw; w++ {
					v.One[w], v.Zero[w] = one[w], zero[w]
				}
			}
		}
		// Detections: lane 0 is the fault-free machine.
		for j, id := range cc.Outputs {
			v := b.vals[id]
			var mism *[laneWords]uint64
			switch v.Lane(0) {
			case logic.One:
				mism = &v.Zero
			case logic.Zero:
				mism = &v.One
			default:
				continue
			}
			for w := 0; w < nw; w++ {
				detected := mism[w] &^ resolved[w]
				if w == 0 {
					detected &^= 1 // lane 0 is the fault-free machine
				}
				for detected != 0 {
					bit := uint(bits.TrailingZeros64(detected))
					detected &^= 1 << bit
					resolved[w] |= 1 << bit
					k := uint(w)<<6 + bit
					results[k-1].Detected = true
					results[k-1].At = seqsim.Detection{Time: u, Output: j}
				}
			}
		}
		if cond {
			b.markPassC(nw)
		}
		if resolved == allFaults {
			// Early exit: the remaining frames cannot change any result.
			st.add(int64(u+1), int64(len(T)-u-1))
			return nil
		}
		// Latch the next state, observing stem faults on Q nodes.
		for i, q := range cc.FFQ {
			b.state[i] = b.stems[q].apply(b.vals[cc.FFD[i]])
		}
	}
	st.add(int64(len(T)), 0)
	for k := range failsC {
		lane := uint(k + 1)
		failsC[k] = !results[k].Detected && b.passC[lane>>6]&(1<<(lane&63)) == 0
	}
	return nil
}

// scanStateX adds to seenX the occupied lanes whose loaded present
// state holds an X, and reports whether some occupied lane is still
// missing from it.
func (b *batch) scanStateX(nw int, occupied *laneSet) bool {
	for _, q := range b.cc.FFQ {
		v := &b.vals[q]
		for w := 0; w < nw; w++ {
			b.seenX[w] |= ^(v.One[w] | v.Zero[w]) & occupied[w]
		}
	}
	return b.seenX != *occupied
}

// markPassC adds to passC the seenX lanes with an X on a primary output
// whose fault-free value (lane 0) is binary.
func (b *batch) markPassC(nw int) {
	for _, id := range b.cc.Outputs {
		v := &b.vals[id]
		if v.Lane(0) == logic.X {
			continue
		}
		for w := 0; w < nw; w++ {
			b.passC[w] |= ^(v.One[w] | v.Zero[w]) & b.seenX[w]
		}
	}
}
