package core

// Bit-parallel resimulation of expanded state sequences (Section 3.4).
//
// The serial resimulate walks one sequence at a time through full-frame
// evaluations. The expanded sequences of one fault differ only in a
// handful of injected state-variable values, so almost all of that work
// is redundant across sequences. Here every sequence rides one lane of
// a 256-lane cir.VV4 word: lane k carries sequence k's state values,
// and one vector pass evaluates every sequence at once. Per-lane bit
// masks replace the serial per-sequence control flow (marked time
// units, detection, infeasibility conflicts), with semantics proved
// lane-for-lane identical to the serial path and asserted so by the
// cross-check tests.
//
// The pass costs what the lanes diverge, not what the circuit holds.
// Every lane is a refinement of the retained faulty trace: packing
// starts each lane at bad.States, expansion assigns only unspecified
// state variables, and resimulation refines only unspecified ones.
// Packed lane state is therefore kept only for the flip-flops that can
// diverge from the trace: the ones the expansion assigned (seedFFs),
// plus a column created the first time the next-state step refines a
// flip-flop that has none. Every other flip-flop holds bad.States on
// every lane.
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

// laneMask is a 256-lane membership mask, one bit per packed sequence,
// mirroring the VV4 word layout.
type laneMask [4]uint64

// ResimTrace summarizes the resimulation passes of one fault for the
// JSONL trace: how many expansions resimulated bit-parallel, the frames
// those vector passes evaluated and the gates they evaluated, the lanes
// they packed (summed over passes — the portfolio retry adds a second
// pass), and how many expansions exceeded the 256-lane word and fell
// back to the serial path. All fields are deterministic for a given
// configuration.
type ResimTrace struct {
	VectorPasses    int `json:"resim_vector_passes,omitempty"`
	VectorFrames    int `json:"resim_vector_frames,omitempty"`
	GateEvals       int `json:"resim_gate_evals,omitempty"`
	Lanes           int `json:"resim_lanes,omitempty"`
	SerialFallbacks int `json:"resim_serial_fallbacks,omitempty"`
}

// seedReset starts a new epoch of the expansion's assignment sets: the
// expansion-assigned state variables (the initial lane columns) and the
// (u, j) cells phase 2 assigned (the step 3 check). expand calls it
// once per invocation.
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
	p.seedFFs = p.seedFFs[:0]
}

// seedAdd records state variable j as assigned by the current expand.
func (s *Simulator) seedAdd(j int) {
	if s.pools.seedStamp[j] != s.pools.seedGen {
		s.pools.seedStamp[j] = s.pools.seedGen
		s.pools.seedFFs = append(s.pools.seedFFs, int32(j))
	}
}

// laneCols is the packed lane state of one pass, kept only for the
// flip-flops whose lanes can diverge from the base trace: column c holds
// flip-flop ffs[c]'s L+1 rows, carved from one slab in creation order.
// The slab has room for every flip-flop, so it is allocated once per
// simulator. Only the first nw words of a cell are live.
type laneCols struct {
	col  []int32 // col[j]: flip-flop j's column, or -1
	ffs  []int32
	rows int
	slab []cir.VV4
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
		lc.slab = make([]cir.VV4, 0, nff*rows)
	} else {
		for _, j := range lc.ffs {
			lc.col[j] = -1
		}
	}
	lc.ffs = lc.ffs[:0]
	lc.slab = lc.slab[:0]
}

// add creates flip-flop j's column and fills rows [from, rows) of it
// with the base trace values states[u][j] on the nw live words. Rows
// below from are left unspecified; the caller never reads them.
func (lc *laneCols) add(j int32, states [][]logic.Val, from, nw int) int32 {
	c := int32(len(lc.ffs))
	lc.col[j] = c
	lc.ffs = append(lc.ffs, j)
	n := len(lc.slab)
	lc.slab = lc.slab[:n+lc.rows]
	for u := from; u < lc.rows; u++ {
		b, cell := cir.LaneBroadcast(states[u][j]), &lc.slab[n+u]
		for w := 0; w < nw; w++ {
			cell.One[w], cell.Zero[w] = b.One[w], b.Zero[w]
		}
	}
	return c
}

// cell returns column c's row u.
func (lc *laneCols) cell(c int32, u int) *cir.VV4 { return &lc.slab[int(c)*lc.rows+u] }

// vresimScratch returns the lane evaluator, the lane columns and the
// (L+1) per-frame lane-mark masks. None need clearing: the columns are
// reset per pass, every mask is fully initialized by the pack stage,
// and the evaluator's overlay is epoch-stamped.
func (s *Simulator) vresimScratch() (ev *cir.LaneEval, cols *laneCols, markRows []laneMask) {
	rows := len(s.T) + 1
	if s.cfg.Reference {
		return s.cc.NewLaneEval(), &laneCols{}, make([]laneMask, rows)
	}
	p := &s.pools
	if p.lanes == nil {
		p.lanes = s.cc.NewLaneEval()
	}
	if cap(p.vvMarks) < rows {
		p.vvMarks = make([]laneMask, rows)
	}
	return p.lanes, &p.laneCols, p.vvMarks[:rows]
}

// resimulateVV is the bit-parallel implementation of resimulate: every
// sequence occupies one lane, and each frame evaluates the lanes'
// divergence from the base trace once for all sequences. Caller
// guarantees len(seqs) <= 256, that bad retains node values, and that
// seqs came from the immediately preceding expand call (whose assigned
// state variables, still in pools.seedFFs, are the initial columns).
func (s *Simulator) resimulateVV(f *fault.Fault, bad *seqsim.Trace, seqs []*sequence, baseMarks []bool) bool {
	cc := s.cc
	L := len(s.T)
	n := len(seqs)
	ev, lc, markRows := s.vresimScratch()

	// all marks the occupied lanes. Only the first nw words hold any —
	// the default NStates cap of 64 fills exactly one — so every plane
	// loop below runs to nw, not 4. Words at and above nw hold stale
	// garbage from earlier passes; they are never read, because every
	// mask is a subset of all, which is zero there.
	const allBits = ^uint64(0)
	nw := (n + 63) >> 6
	var all laneMask
	for w := 0; w < 4; w++ {
		switch {
		case n >= (w+1)*64:
			all[w] = allBits
		case n > w*64:
			all[w] = 1<<uint(n-w*64) - 1
		}
	}

	// Pack. Every lane starts as the shared base (bad) trace; sequences
	// diverge from it only at marked time units on expansion-assigned
	// state variables (expand marks every unit it writes), so only those
	// cells are scanned for per-lane diffs. The serial path's
	// per-sequence copy of baseMarks becomes an all-lanes mask per
	// marked unit.
	lc.reset(cc.NumFFs(), L+1)
	for _, j := range s.pools.seedFFs {
		lc.add(j, bad.States, 0, nw)
	}
	for u := 0; u <= L; u++ {
		if baseMarks[u] {
			markRows[u] = all
		} else {
			markRows[u] = laneMask{}
		}
	}
	for k, sq := range seqs {
		for u := 0; u < L; u++ {
			if !baseMarks[u] {
				continue
			}
			row, badRow := sq.states[u], bad.States[u]
			for c, j := range lc.ffs {
				if v := row[j]; v != badRow[j] {
					lc.cell(int32(c), u).SetLane(uint(k), v)
				}
			}
		}
	}

	stem := f.IsStem()
	stuck := cir.Broadcast4(f.Stuck)
	ev.BeginPass(f, nw)
	var resolvedM laneMask
	frames, gateEvals := 0, 0
	for u := 0; u < L && resolvedM != all; u++ {
		var active laneMask
		anyActive := uint64(0)
		for w := 0; w < nw; w++ {
			active[w] = markRows[u][w] &^ resolvedM[w]
			anyActive |= active[w]
		}
		if anyActive == 0 {
			continue
		}
		frames++

		// Frame evaluation: seed every column's Q node (only the ones
		// whose lanes differ from the trace on an active lane start
		// events), then evaluate the gates their values reach.
		ev.BeginFrame(bad.Nodes[u], active)
		for c, j := range lc.ffs {
			ev.Seed(cc.FFQ[j], lc.cell(int32(c), u))
		}
		gateEvals += ev.Drain()
		touched := ev.Touched()

		// Detections: a lane whose binary output value contradicts a
		// binary fault-free response resolves, exactly the serial scan.
		// Only touched outputs can differ from the (undetecting) trace.
		var det laneMask
		goodOuts := s.good.Outputs[u]
		for _, id := range touched {
			oj := cc.OutPos[id]
			if oj < 0 {
				continue
			}
			g := goodOuts[oj]
			if !g.IsBinary() {
				continue
			}
			v := ev.Value(id)
			mism := &v.One
			if g == logic.One {
				mism = &v.Zero
			}
			for w := 0; w < nw; w++ {
				det[w] |= mism[w]
			}
		}
		var act laneMask
		anyAct := uint64(0)
		for w := 0; w < nw; w++ {
			det[w] &= active[w]
			resolvedM[w] |= det[w]
			act[w] = active[w] &^ det[w]
			anyAct |= act[w]
		}
		if anyAct == 0 {
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
		nextMarks := &markRows[u+1]
		for _, j := range dffs {
			v := ev.Value(cc.FFD[j])
			if stem && cc.FFQ[j] == f.Node {
				// The stem fault holds this flip-flop's observed next
				// state at the stuck value (fault.Observed).
				v = &stuck
			}
			c := lc.col[j]
			var tmp cir.VV4
			cell := &tmp
			if c >= 0 {
				cell = lc.cell(c, u+1)
			} else {
				tmp = *cir.LaneBroadcast(bad.States[u+1][j])
			}
			refined := uint64(0)
			for w := 0; w < nw; w++ {
				a := act[w]
				if a == 0 {
					continue
				}
				one, zero := v.One[w], v.Zero[w]
				nOne, nZero := cell.One[w], cell.Zero[w]
				conflict := (one&nZero | zero&nOne) & a
				refine := (one | zero) &^ (nOne | nZero) & a
				cell.One[w] = nOne | one&refine
				cell.Zero[w] = nZero | zero&refine
				nextMarks[w] |= refine
				refined |= refine
				resolvedM[w] |= conflict
				act[w] = a &^ conflict
			}
			if c < 0 && refined != 0 {
				c = lc.add(j, bad.States, u+2, nw)
				*lc.cell(c, u+1) = tmp
			}
		}
	}

	if st := s.stats; st != nil {
		st.resimVectorPasses++
		st.resimVectorFrames += int64(frames)
		st.resimGateEvals += int64(gateEvals)
	}
	if s.hist != nil {
		s.hist.ResimLanesPerPass.Observe(int64(n))
	}
	s.lastResim.VectorPasses++
	s.lastResim.VectorFrames += frames
	s.lastResim.GateEvals += gateEvals
	s.lastResim.Lanes += n
	return resolvedM == all
}
