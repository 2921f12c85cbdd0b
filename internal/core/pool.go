package core

import (
	"sort"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// simPools is the per-Simulator reusable state that keeps the per-fault
// pipeline allocation-free in steady state. Every pool hangs off one
// Simulator and is touched only by that simulator's (single) goroutine:
// RunParallel gives each worker its own Simulator value, so pools are
// never shared across goroutines. The zero value is ready to use; every
// buffer is grown lazily on first demand.
//
// Lifecycle: the pair-collection arenas (svArena, svIdxArena, pairs) are
// truncated at the start of each fault's collectPairs and stay valid for
// the rest of that fault's pipeline; the implication frames and scratch
// slices are reset at each use; the expansion scratch is reset by each
// expand call.
type simPools struct {
	// pairFrame is the serial implication frame of pair collection under
	// the Fixpoint schedule or BackwardDepth > 1. It is reset to the
	// frame u-1 base once per time unit and restored by an O(changed)
	// trail undo after each side of each pair.
	pairFrame *implic.Frame
	// laneFrame is the lane implication kernel of pair collection
	// (collectLanes); laneXs lists the unspecified state variables of
	// the current time unit and laneHot the ones some lane specified.
	laneFrame *implic.LaneFrame
	laneXs    []int
	laneHot   []laneHot
	// deepFrames[d] is the frame reused at chase level d of deepBackward.
	deepFrames []*implic.Frame
	// deepNewly buffers the newly specified present-state variables of
	// the current deepBackward level.
	deepNewly []svAssign
	// extraScratch buffers one side's extra assignments before they are
	// interned into svArena.
	extraScratch []svAssign
	// svStamp/svGen are the epoch-stamped membership set replacing the
	// per-pair map[int]bool: svStamp[j] == svGen means state variable j
	// is in the current pair's sv(u, i). svList collects the members.
	svStamp []int32
	svGen   int32
	svList  []int
	// svArena and svIdxArena are per-fault slabs backing pairInfo.extra
	// and pairInfo.sv.
	svArena    []svAssign
	svIdxArena []int
	// pairs backs the slice returned by collectPairs, trivialPairs the
	// one trivialPairs returns.
	pairs        []pairInfo
	trivialPairs []pairInfo
	// trivial holds every flip-flop's trivial pair slices (trivialPair):
	// zero[i] = (i, 0), one[i] = (i, 1), sv[i] = i.
	trivial struct {
		zero, one []svAssign
		sv        []int
	}
	// exp is the expansion expand fills, its s0 rows carved from one
	// slab allocated once.
	exp expansion
	// badTrace is the reused faulty-machine trace filled by RunFaultInto.
	// Safe to recycle per fault: SimulateFault consumes it entirely before
	// returning.
	badTrace *seqsim.Trace

	// Expansion assignment sets (vresim.go). seedStamp/seedGen are the
	// epoch-stamped membership of the current expand call's seeds (the
	// initial lane columns). assignStamp, indexed u*NumFFs+j and stamped
	// with the same generation, marks the cells phase 2 of that call
	// assigned (the step 3 check).
	seedStamp   []int32
	seedGen     int32
	assignStamp []int32
	// lanes is the event-driven vector frame evaluator (its overlay
	// holds the frame's divergent node values); laneCols the packed lane
	// state of the divergent flip-flops, and vvMarks the per-frame
	// marked-lane masks.
	lanes    *cir.LaneEval
	laneCols laneCols
	vvMarks  []uint64
}

// runBad simulates the faulty machine for f, reusing the pooled trace.
// Per-frame node values are always kept: the implication engine and the
// vector resimulation's overlay baseline read them.
func (s *Simulator) runBad(f fault.Fault) (*seqsim.Trace, seqsim.Detection, bool, error) {
	if s.pools.badTrace == nil {
		s.pools.badTrace = seqsim.NewTrace(s.c, len(s.T), true)
		if st := s.stats; st != nil {
			st.pool.TraceAllocs++
		}
	} else if st := s.stats; st != nil {
		st.pool.TraceReuses++
	}
	at, detected, err := s.sim.RunFaultInto(s.pools.badTrace, s.T, s.good, f, true)
	return s.pools.badTrace, at, detected, err
}

// resetCollect prepares the pools for a new fault's pair collection,
// releasing the previous fault's pairs and arena contents.
func (s *Simulator) resetCollect() {
	s.pools.pairs = s.pools.pairs[:0]
	s.pools.svArena = s.pools.svArena[:0]
	s.pools.svIdxArena = s.pools.svIdxArena[:0]
}

// pairFrame returns the pooled pair-collection frame reset to the given
// fault and base assignment.
func (s *Simulator) pairFrame(f *fault.Fault, base []logic.Val) *implic.Frame {
	if s.pools.pairFrame == nil {
		s.pools.pairFrame = implic.NewCompiled(s.cc, f, base)
		if st := s.stats; st != nil {
			st.pool.FrameAllocs++
		}
		return s.pools.pairFrame
	}
	s.pools.pairFrame.ResetFault(f, base)
	if st := s.stats; st != nil {
		st.pool.FrameReuses++
	}
	return s.pools.pairFrame
}

// laneFrame returns the pooled lane implication kernel.
func (s *Simulator) laneFrame() *implic.LaneFrame {
	if s.pools.laneFrame == nil {
		s.pools.laneFrame = implic.NewLaneFrame(s.cc)
		if st := s.stats; st != nil {
			st.pool.FrameAllocs++
		}
		return s.pools.laneFrame
	}
	if st := s.stats; st != nil {
		st.pool.FrameReuses++
	}
	return s.pools.laneFrame
}

// deepFrame returns the pooled frame for chase level d of deepBackward,
// reset to the given fault and base assignment.
func (s *Simulator) deepFrame(d int, f *fault.Fault, base []logic.Val) *implic.Frame {
	for len(s.pools.deepFrames) <= d {
		s.pools.deepFrames = append(s.pools.deepFrames, nil)
	}
	if fr := s.pools.deepFrames[d]; fr != nil {
		fr.ResetFault(f, base)
		if st := s.stats; st != nil {
			st.pool.FrameReuses++
		}
		return fr
	}
	fr := implic.NewCompiled(s.cc, f, base)
	s.pools.deepFrames[d] = fr
	if st := s.stats; st != nil {
		st.pool.FrameAllocs++
	}
	return fr
}

// svReset starts a new membership epoch for the sv(u, i) set.
func (s *Simulator) svReset() {
	if len(s.pools.svStamp) != s.c.NumFFs() {
		s.pools.svStamp = make([]int32, s.c.NumFFs())
		s.pools.svGen = 0
	}
	s.pools.svGen++
	if s.pools.svGen <= 0 { // generation counter wrapped: restamp from 1
		for i := range s.pools.svStamp {
			s.pools.svStamp[i] = 0
		}
		s.pools.svGen = 1
	}
	s.pools.svList = s.pools.svList[:0]
}

// svAdd inserts state variable j into the current epoch's set once.
func (s *Simulator) svAdd(j int) {
	if s.pools.svStamp[j] != s.pools.svGen {
		s.pools.svStamp[j] = s.pools.svGen
		s.pools.svList = append(s.pools.svList, j)
	}
}

// svTake sorts the collected members and interns them into the per-fault
// arena (the expansion path requires a deterministic sv order).
func (s *Simulator) svTake() []int {
	sort.Ints(s.pools.svList)
	start := len(s.pools.svIdxArena)
	s.pools.svIdxArena = append(s.pools.svIdxArena, s.pools.svList...)
	end := len(s.pools.svIdxArena)
	return s.pools.svIdxArena[start:end:end]
}

// internExtra copies one side's extra assignments into the per-fault
// arena. Carved slices stay valid when the slab later grows (append to a
// new array leaves old carvings pointing at live memory) and are capped so
// they can never bleed into a neighbour.
func (s *Simulator) internExtra(list []svAssign) []svAssign {
	if len(list) == 0 {
		return nil
	}
	start := len(s.pools.svArena)
	s.pools.svArena = append(s.pools.svArena, list...)
	end := len(s.pools.svArena)
	return s.pools.svArena[start:end:end]
}

// newExpansion returns an empty expansion whose s0 holds a copy of
// states, and starts a new epoch of the expansion's assignment sets.
// It is the pooled expansion, valid until the next call.
func (s *Simulator) newExpansion(states [][]logic.Val) *expansion {
	s.seedReset()
	x := &s.pools.exp
	if nFF := s.c.NumFFs(); len(x.s0) != len(states) {
		flat := make([]logic.Val, len(states)*nFF)
		x.s0 = make([][]logic.Val, len(states))
		for u := range x.s0 {
			x.s0[u] = flat[u*nFF : (u+1)*nFF : (u+1)*nFF]
		}
		x.marks = make([]bool, len(states))
	} else {
		clear(x.marks)
	}
	for u, row := range states {
		copy(x.s0[u], row)
	}
	x.steps, x.seeds = x.steps[:0], x.seeds[:0]
	return x
}
