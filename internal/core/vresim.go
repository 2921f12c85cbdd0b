package core

// Bit-parallel resimulation of expanded state sequences (Section 3.4).
//
// The paper resimulates one sequence at a time through full-frame
// evaluations (resimulateRef in the tests, the reference this file is
// checked against). The expanded sequences of one fault differ only in
// a handful of injected state-variable values, so almost all of that
// work is redundant across sequences. Here every sequence rides one
// lane of a 64-bit cir.VV word: lane l carries sequence l's state
// values, and one vector pass evaluates 64 sequences at once. Per-lane
// bit masks replace the per-sequence control flow (marked time units,
// detection, infeasibility conflicts), with semantics proved
// lane-for-lane identical to the serial loop and asserted so by the
// cross-check tests. Expansions of more than 64 sequences run as
// 64-lane chunks, one pass each: every mask is per lane, so a lane's
// outcome does not depend on the chunk it rides, and the fault stays
// undetected at the first chunk that leaves a lane unresolved.
//
// The sequences are never materialized. expand returns the base
// sequence s0 and the phase-2 steps; lane l takes side bit
// steps-1-k of l at step k (expansion). Within a 64-lane chunk that
// side is a fixed bit pattern for the six lowest bits and constant
// otherwise, so packing costs one mask operation per assigned cell:
// the step 3 check guarantees the cell is X in s0 and written by no
// other step.
//
// The pass costs what the lanes diverge, not what the circuit holds.
// Every lane is a refinement of the retained faulty trace: s0 starts
// from bad.States, expansion assigns only unspecified state variables,
// and resimulation refines only unspecified ones. Packed lane state is
// therefore kept only for the flip-flops that can diverge from the
// trace: the ones the expansion assigned (its seeds), plus a column
// created the first time the next-state step refines a flip-flop that
// has none. Every other flip-flop holds bad.States on every lane.
//
// Each frame evaluates event-driven (cir.LaneEval) as a sparse overlay
// on bad.Nodes[u]: it seeds the column Q nodes, and only those whose
// lanes differ from the trace on an active lane start events. A gate
// whose inputs all equal the trace produces exactly the trace value, so
// every node the evaluator did not touch equals bad.Nodes[u] on every
// active lane, and a frame with no seeds evaluates no gate at all. Such
// an untouched node can neither detect (the fault survived step 0, so
// the trace never contradicts a binary fault-free output) nor refine or
// conflict at a flip-flop (every lane already refines bad.States[u+1],
// which is that value observed through the fault). Detection therefore
// scans only touched output nodes, and the next-state step visits only
// touched D nodes, in ascending flip-flop order as the serial loop
// does. Each restriction is exact, not an approximation.

import (
	"slices"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// ResimTrace summarizes the resimulation passes of one fault for the
// JSONL trace: how many 64-lane vector passes ran, the frames those
// passes evaluated and the gates they evaluated, and the lanes they
// packed (summed over passes — the portfolio retry adds a second
// pass, and an expansion of more than 64 sequences one per chunk). All
// fields are deterministic for a given configuration.
type ResimTrace struct {
	VectorPasses int `json:"resim_vector_passes,omitempty"`
	VectorFrames int `json:"resim_vector_frames,omitempty"`
	GateEvals    int `json:"resim_gate_evals,omitempty"`
	Lanes        int `json:"resim_lanes,omitempty"`
}

// seedReset starts a new epoch of the expansion's assignment sets: the
// expansion-assigned state variables (the initial lane columns) and the
// (u, j) cells phase 2 assigned (the step 3 check).
func (s *Simulator) seedReset() {
	p := &s.pools
	if nff := s.c.NumFFs(); len(p.seedStamp) != nff {
		p.seedStamp = make([]int32, nff)
		p.assignStamp = make([]int32, (len(s.T)+1)*nff)
		p.seedGen = 0
	}
	p.seedGen++
	if p.seedGen <= 0 { // generation counter wrapped: restamp from 1
		clear(p.seedStamp)
		clear(p.assignStamp)
		p.seedGen = 1
	}
}

// seedAdd records state variable j as assigned by expansion x.
func (s *Simulator) seedAdd(x *expansion, j int) {
	if s.pools.seedStamp[j] != s.pools.seedGen {
		s.pools.seedStamp[j] = s.pools.seedGen
		x.seeds = append(x.seeds, int32(j))
	}
}

// laneCols is the packed lane state of one pass, kept only for the
// flip-flops whose lanes can diverge from the base trace: column c holds
// flip-flop ffs[c]'s L+1 rows, carved from one slab in creation order.
// The slab has room for every flip-flop, so it is allocated once per
// simulator.
type laneCols struct {
	col  []int32 // col[j]: flip-flop j's column, or -1
	ffs  []int32
	rows int
	slab []cir.VV
	// dffs is per-frame scratch: the touched D nodes' flip-flops.
	dffs []int32
}

// reset empties the column set for a pass over rows time units of a
// circuit with nff flip-flops.
func (lc *laneCols) reset(nff, rows int) {
	if len(lc.col) != nff || lc.rows != rows {
		lc.col = make([]int32, nff)
		for j := range lc.col {
			lc.col[j] = -1
		}
		lc.rows = rows
		lc.slab = make([]cir.VV, 0, nff*rows)
	} else {
		for _, j := range lc.ffs {
			lc.col[j] = -1
		}
	}
	lc.ffs = lc.ffs[:0]
	lc.slab = lc.slab[:0]
}

// add creates flip-flop j's column and fills rows [from, rows) of it
// with states[u][j] on every lane. Rows below from are left
// unspecified; the caller never reads them.
func (lc *laneCols) add(j int32, states [][]logic.Val, from int) int32 {
	c := int32(len(lc.ffs))
	lc.col[j] = c
	lc.ffs = append(lc.ffs, j)
	n := len(lc.slab)
	lc.slab = lc.slab[:n+lc.rows]
	for u := from; u < lc.rows; u++ {
		lc.slab[n+u] = cir.Broadcast(states[u][j])
	}
	return c
}

// cell returns column c's row u.
func (lc *laneCols) cell(c int32, u int) *cir.VV { return &lc.slab[int(c)*lc.rows+u] }

// laneBit[b] has bit l set exactly when bit b of l is, for l in [0, 64):
// the lanes of a 64-lane chunk that take side 1 at a step decided by
// lane bit b.
var laneBit = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// pack loads the lane columns of the chunk of lanes [lo, lo+64) masked
// by all: every seed column starts as s0's value on every lane, and
// each step sets its assignments on the lanes that take that side.
func (lc *laneCols) pack(x *expansion, lo int, all uint64) {
	for _, j := range x.seeds {
		lc.add(j, x.s0, 0)
	}
	for k, st := range x.steps {
		var side1 uint64
		if b := len(x.steps) - 1 - k; b < len(laneBit) {
			side1 = laneBit[b]
		} else if lo>>b&1 == 1 {
			side1 = ^uint64(0)
		}
		side := [2]uint64{all &^ side1, all & side1}
		for a := range st.extra {
			for _, e := range st.extra[a] {
				cell := lc.cell(lc.col[e.j], st.u)
				if e.v == logic.One {
					cell.One |= side[a]
				} else {
					cell.Zero |= side[a]
				}
			}
		}
	}
}

// vresimScratch returns the lane evaluator, the lane columns and the
// (L+1) per-frame lane-mark masks. None need clearing: the columns are
// reset per pass, every mask is initialized by the pass, and the
// evaluator's overlay is epoch-stamped.
func (s *Simulator) vresimScratch() (ev *cir.LaneEval, cols *laneCols, markRows []uint64) {
	rows := len(s.T) + 1
	p := &s.pools
	if p.lanes == nil {
		p.lanes = s.cc.NewLaneEval()
	}
	if cap(p.vvMarks) < rows {
		p.vvMarks = make([]uint64, rows)
	}
	return p.lanes, &p.laneCols, p.vvMarks[:rows]
}

// resimulate implements Section 3.4: every sequence is resimulated at
// its marked time units (propagating newly specified state variables
// forward) until it is resolved by a detection or an infeasibility
// conflict, or until no marked units remain. The fault is detected when
// every sequence resolves.
//
// Every sequence of expansion x occupies one lane, and each frame of a
// pass evaluates the divergence of 64 lanes from the base trace at
// once. It returns false at the first 64-lane chunk that leaves a lane
// unresolved. Caller guarantees that bad retains node values and is
// the trace x expanded from.
func (s *Simulator) resimulate(f *fault.Fault, bad *seqsim.Trace, x *expansion) bool {
	ev, lc, markRows := s.vresimScratch()
	n := x.lanes()
	resolved := true
	for lo := 0; lo < n && resolved; lo += 64 {
		all := ^uint64(0)
		if n-lo < 64 {
			all = 1<<uint(n-lo) - 1
		}
		var frames, gateEvals int
		resolved, frames, gateEvals = s.resimPass(f, bad, x, lo, all, ev, lc, markRows)
		if st := s.stats; st != nil {
			st.resimVectorPasses++
			st.resimVectorFrames += int64(frames)
			st.resimGateEvals += int64(gateEvals)
		}
		if s.hist != nil {
			s.hist.ResimLanesPerPass.Observe(int64(min(n-lo, 64)))
		}
		s.lastResim.VectorPasses++
		s.lastResim.VectorFrames += frames
		s.lastResim.GateEvals += gateEvals
		s.lastResim.Lanes += min(n-lo, 64)
	}
	if resimHook != nil {
		resimHook(s, f, bad, x, resolved)
	}
	return resolved
}

// resimHook, when set (tests only), observes every resimulate verdict,
// so it can be checked against the serial reference.
var resimHook func(s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion, got bool)

// resimPass resimulates the lanes all of the 64-lane chunk starting at
// lane lo and reports whether every one resolved, with the frames and
// gates it evaluated.
func (s *Simulator) resimPass(f *fault.Fault, bad *seqsim.Trace, x *expansion, lo int, all uint64,
	ev *cir.LaneEval, lc *laneCols, markRows []uint64) (ok bool, frames, gateEvals int) {
	cc := s.cc
	L := len(s.T)

	// Pack. Every lane starts as s0, and the serial path's per-sequence
	// copy of the marks becomes an all-lanes mask per marked unit.
	lc.reset(cc.NumFFs(), L+1)
	lc.pack(x, lo, all)
	for u := 0; u <= L; u++ {
		markRows[u] = 0
		if x.marks[u] {
			markRows[u] = all
		}
	}

	stem := f.IsStem()
	stuck := cir.Broadcast(f.Stuck)
	ev.BeginPass(f)
	var resolved uint64
	for u := 0; u < L && resolved != all; u++ {
		active := markRows[u] &^ resolved
		if active == 0 {
			continue
		}
		frames++

		// Frame evaluation: seed every column's Q node (only the ones
		// whose lanes differ from the trace on an active lane start
		// events), then evaluate the gates their values reach.
		ev.BeginFrame(bad.Nodes[u], active)
		for c, j := range lc.ffs {
			ev.Seed(cc.FFQ[j], *lc.cell(int32(c), u))
		}
		gateEvals += ev.Drain()
		touched := ev.Touched()

		// Detections: a lane whose binary output value contradicts a
		// binary fault-free response resolves, exactly the serial scan.
		// Only touched outputs can differ from the (undetecting) trace.
		var det uint64
		goodOuts := s.good.Outputs[u]
		for _, id := range touched {
			oj := cc.OutPos[id]
			if oj < 0 {
				continue
			}
			switch goodOuts[oj] {
			case logic.Zero:
				det |= ev.Value(id).One
			case logic.One:
				det |= ev.Value(id).Zero
			}
		}
		det &= active
		resolved |= det
		act := active &^ det
		if act == 0 {
			// Every active lane detected this frame; the serial path
			// breaks out before the next-state step, so do we.
			continue
		}

		// Next-state comparison against the packed state at u+1, lane
		// rules identical to the serial switch: a binary computed value
		// against X refines the lane (and marks u+1 for it), against the
		// opposite binary value conflicts (infeasible sequence, lane
		// resolved, later flip-flops untouched — act drops the lane).
		// Only touched D nodes can refine or conflict; they are visited
		// in ascending flip-flop order, as the serial loop does. A
		// flip-flop without a column compares against its trace value
		// and gets a column the first time it refines.
		dffs := lc.dffs[:0]
		for _, id := range touched {
			if j := cc.DOf[id]; j >= 0 {
				dffs = append(dffs, j)
			}
		}
		slices.Sort(dffs)
		lc.dffs = dffs
		for _, j := range dffs {
			v := ev.Value(cc.FFD[j])
			if stem && cc.FFQ[j] == f.Node {
				// The stem fault holds this flip-flop's observed next
				// state at the stuck value (fault.Observed).
				v = stuck
			}
			c := lc.col[j]
			next := cir.Broadcast(bad.States[u+1][j])
			if c >= 0 {
				next = *lc.cell(c, u+1)
			}
			conflict := (v.One&next.Zero | v.Zero&next.One) & act
			if refine := (v.One | v.Zero) &^ (next.One | next.Zero) & act; refine != 0 {
				if c < 0 {
					c = lc.add(j, bad.States, u+1)
				}
				cell := lc.cell(c, u+1)
				cell.One |= v.One & refine
				cell.Zero |= v.Zero & refine
				markRows[u+1] |= refine
			}
			resolved |= conflict
			if act &^= conflict; act == 0 {
				break
			}
		}
	}
	return resolved == all, frames, gateEvals
}
