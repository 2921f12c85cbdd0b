package core

// Bit-parallel resimulation of expanded state sequences (Section 3.4).
//
// The serial resimulate walks one sequence at a time through full-frame
// evaluations. The expanded sequences of one fault differ only in a
// handful of injected state-variable values, so almost all of that work
// is redundant across sequences. Here every sequence rides one lane of
// a 256-lane cir.VV4 word: lane k carries sequence k's state values,
// and one vector pass over the fault's region evaluates every sequence
// at once. Per-lane bit masks replace the serial per-sequence control
// flow (marked time units, detection, infeasibility conflicts), with
// semantics proved lane-for-lane identical to the serial path and
// asserted so by the cross-check tests.
//
// The pass is confined to the fault's *region* (cir.Region): the
// sequential fanout closure of the fault site plus the Q nodes of every
// state variable the expansion assigned. Within it, frames evaluate
// event-driven (cir.LaneEval) as a sparse overlay on the retained
// faulty trace bad.Nodes[u]. Every lane is a refinement of that trace:
// packing starts each lane at bad.States, expansion assigns only
// unspecified state variables, and resimulation refines only
// unspecified ones. A frame therefore seeds only the region Q nodes
// whose lane state differs from bad.States[u] on an active lane, and
// evaluates only the gates those values reach. A gate whose inputs all
// equal the trace produces exactly the trace value, so every untouched
// node equals bad.Nodes[u] on every active lane; a frame with no seeds
// evaluates no gate at all. Nodes outside the region never diverge:
// expansion assigns only state variables (whose Q nodes seed the
// closure), dynamic refinements land only on flip-flops whose D node is
// inside the region (so their Q is too, by the closure), and the region
// is closed under fanout. Detection scans region outputs only and the
// next-state comparison visits region D nodes only, both reading
// through the overlay. Each confinement is exact, not an approximation.

import (
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

// seedReset starts a new epoch of the expansion-assigned state-variable
// set (the region seeds). expand calls it once per invocation.
func (s *Simulator) seedReset() {
	if len(s.pools.seedStamp) != s.c.NumFFs() {
		s.pools.seedStamp = make([]int32, s.c.NumFFs())
		s.pools.seedGen = 0
	}
	s.pools.seedGen++
	if s.pools.seedGen <= 0 { // generation counter wrapped: restamp from 1
		for i := range s.pools.seedStamp {
			s.pools.seedStamp[i] = 0
		}
		s.pools.seedGen = 1
	}
	s.pools.seedFFs = s.pools.seedFFs[:0]
}

// seedAdd records state variable j as assigned by the current expand.
func (s *Simulator) seedAdd(j int) {
	if s.pools.seedStamp[j] != s.pools.seedGen {
		s.pools.seedStamp[j] = s.pools.seedGen
		s.pools.seedFFs = append(s.pools.seedFFs, int32(j))
	}
}

// resimRegion fills (and in Reference mode allocates) the region for
// the current fault and seed set.
func (s *Simulator) resimRegion(f *fault.Fault) *cir.Region {
	if s.cfg.Reference {
		r := s.cc.NewRegion()
		s.cc.FillRegion(f, s.pools.seedFFs, r)
		return r
	}
	if s.pools.region == nil {
		s.pools.region = s.cc.NewRegion()
	}
	s.cc.FillRegion(f, s.pools.seedFFs, s.pools.region)
	return s.pools.region
}

// vresimScratch returns the lane evaluator, the (L+1) packed state
// rows of nq lane words each, and the per-frame lane-mark masks. None
// need clearing: every row and mask is fully initialized by the pack
// stage, and the evaluator's overlay is epoch-stamped.
func (s *Simulator) vresimScratch(nq int) (ev *cir.LaneEval, state [][]cir.VV4, markRows []laneMask) {
	rows := len(s.T) + 1
	need := rows * nq
	if s.cfg.Reference {
		flat := make([]cir.VV4, need)
		state = make([][]cir.VV4, rows)
		for u := 0; u < rows; u++ {
			state[u] = flat[u*nq : (u+1)*nq : (u+1)*nq]
		}
		return s.cc.NewLaneEval(), state, make([]laneMask, rows)
	}
	p := &s.pools
	if p.lanes == nil {
		p.lanes = s.cc.NewLaneEval()
	}
	if cap(p.vvFlat) < need {
		p.vvFlat = make([]cir.VV4, need)
	}
	flat := p.vvFlat[:need]
	if cap(p.vvState) < rows {
		p.vvState = make([][]cir.VV4, rows)
	}
	p.vvState = p.vvState[:rows]
	state = p.vvState
	for u := 0; u < rows; u++ {
		state[u] = flat[u*nq : (u+1)*nq : (u+1)*nq]
	}
	if cap(p.vvMarks) < rows {
		p.vvMarks = make([]laneMask, rows)
	}
	return p.lanes, state, p.vvMarks[:rows]
}

// qPosScratch returns the FF-index -> region.QFFs-position map. Only
// entries for the current region's QFFs are filled; stale entries are
// never read (every lookup is for a flip-flop whose Q is in the region).
func (s *Simulator) qPosScratch() []int32 {
	if s.cfg.Reference {
		return make([]int32, s.c.NumFFs())
	}
	if len(s.pools.qPos) != s.c.NumFFs() {
		s.pools.qPos = make([]int32, s.c.NumFFs())
	}
	return s.pools.qPos
}

// resimulateVV is the bit-parallel implementation of resimulate: every
// sequence occupies one lane, and each frame evaluates the fault's
// region once for all sequences. Caller guarantees len(seqs) <= 256,
// that bad retains node values, and that seqs came from the
// immediately preceding expand call (whose assigned state variables,
// still in pools.seedFFs, seed the region).
func (s *Simulator) resimulateVV(f *fault.Fault, bad *seqsim.Trace, seqs []*sequence, baseMarks []bool) bool {
	cc := s.cc
	L := len(s.T)
	n := len(seqs)
	reg := s.resimRegion(f)
	ev, state, markRows := s.vresimScratch(len(reg.QFFs))
	qPos := s.qPosScratch()
	for qi, j := range reg.QFFs {
		qPos[j] = int32(qi)
	}

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
	for u := 0; u <= L; u++ {
		row, badRow := state[u], bad.States[u]
		for qi, j := range reg.QFFs {
			var one, zero uint64
			switch badRow[j] {
			case logic.One:
				one = allBits
			case logic.Zero:
				zero = allBits
			}
			c := &row[qi]
			for w := 0; w < nw; w++ {
				c.One[w], c.Zero[w] = one, zero
			}
		}
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
			for _, j := range s.pools.seedFFs {
				if v := row[j]; v != badRow[j] {
					state[u][qPos[j]].SetLane(uint(k), v)
				}
			}
		}
	}

	stem := f.IsStem()
	stuck := cir.Broadcast4(f.Stuck)
	ev.BeginPass(reg, f, nw)
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

		// Frame evaluation: seed the region Q nodes whose packed state
		// differs from the trace on an active lane, then evaluate the
		// gates their values reach.
		ev.BeginFrame(bad.Nodes[u], active)
		row := state[u]
		for qi, j := range reg.QFFs {
			ev.Seed(cc.FFQ[j], &row[qi])
		}
		gateEvals += ev.Drain()

		// Detections: a lane whose binary output value contradicts a
		// binary fault-free response resolves, exactly the serial scan.
		// Only region outputs can differ (the region contains the cone).
		var det laneMask
		goodOuts := s.good.Outputs[u]
		for _, oj := range reg.Outs {
			g := goodOuts[oj]
			if !g.IsBinary() {
				continue
			}
			v := ev.Value(cc.Outputs[oj])
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
		next := state[u+1]
		nextMarks := &markRows[u+1]
		for _, j := range reg.DFFs {
			v := ev.Value(cc.FFD[j])
			if stem && cc.FFQ[j] == f.Node {
				// The stem fault holds this flip-flop's observed next
				// state at the stuck value (fault.Observed).
				v = &stuck
			}
			cell := &next[qPos[j]]
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
				resolvedM[w] |= conflict
				act[w] = a &^ conflict
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
