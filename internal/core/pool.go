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
// slices are reset at each use; expansion sequences cycle through seqFree
// across faults.
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
	// pairs backs the slice returned by collectPairs.
	pairs []pairInfo
	// seqFree recycles expansion sequences (flat value slab plus row
	// headers) across faults.
	seqFree []*sequence
	// expMarks, resimVals and resimMarks are per-call scratch for expand
	// and resimulate.
	expMarks   []bool
	resimVals  []logic.Val
	resimMarks []bool
	// badTrace is the reused faulty-machine trace filled by RunFaultInto.
	// Safe to recycle per fault: SimulateFault consumes it entirely before
	// returning.
	badTrace *seqsim.Trace

	// Bit-parallel resimulation scratch (vresim.go). seedStamp/seedGen/
	// seedFFs are the epoch-stamped set of state variables assigned by
	// the current expand call — the initial lane columns. assignStamp,
	// indexed u*NumFFs+j and stamped with the same generation, marks the
	// cells phase 2 of that call assigned (the step 3 check).
	seedStamp   []int32
	seedGen     int32
	seedFFs     []int32
	assignStamp []int32
	// lanes is the event-driven vector frame evaluator (its overlay
	// holds the frame's divergent node values); laneCols the packed lane
	// state of the divergent flip-flops, and vvMarks the per-frame
	// marked-lane masks.
	lanes    *cir.LaneEval
	laneCols laneCols
	vvMarks  []laneMask
}

// runBad simulates the faulty machine for f, reusing the pooled trace.
// The Reference configuration keeps the allocate-per-fault RunFault path.
// Per-frame node values are kept whenever a later stage reads them: the
// implication engine and the vector resimulation's overlay baseline.
func (s *Simulator) runBad(f fault.Fault) (*seqsim.Trace, seqsim.Detection, bool, error) {
	keepNodes := s.cfg.UseBackwardImplications || s.cfg.BitParallelResim
	if s.cfg.Reference {
		return s.sim.RunFault(s.T, s.good, f, keepNodes)
	}
	if s.pools.badTrace == nil {
		s.pools.badTrace = seqsim.NewTrace(s.c, len(s.T), keepNodes)
		if st := s.stats; st != nil {
			st.pool.TraceAllocs++
		}
	} else if st := s.stats; st != nil {
		st.pool.TraceReuses++
	}
	at, detected, err := s.sim.RunFaultInto(s.pools.badTrace, s.T, s.good, f, keepNodes)
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

// internExtra1 interns a single assignment without a temporary slice.
func (s *Simulator) internExtra1(a svAssign) []svAssign {
	start := len(s.pools.svArena)
	s.pools.svArena = append(s.pools.svArena, a)
	end := len(s.pools.svArena)
	return s.pools.svArena[start:end:end]
}

// trivialPairPooled is trivialPair with arena-backed slices.
func (s *Simulator) trivialPairPooled(u, i int) pairInfo {
	var p pairInfo
	p.u, p.i = u, i
	p.extra[0] = s.internExtra1(svAssign{j: i, v: logic.Zero})
	p.extra[1] = s.internExtra1(svAssign{j: i, v: logic.One})
	s.svReset()
	s.svAdd(i)
	p.sv = s.svTake()
	return p
}

// newSeq returns a sequence sized for this simulator (L+1 rows of nFF
// values backed by one flat slab), recycling a released one when possible.
// Row contents are unspecified.
func (s *Simulator) newSeq() *sequence {
	rows, nFF := len(s.T)+1, s.c.NumFFs()
	need := rows * nFF
	if n := len(s.pools.seqFree); n > 0 {
		sq := s.pools.seqFree[n-1]
		s.pools.seqFree[n-1] = nil
		s.pools.seqFree = s.pools.seqFree[:n-1]
		if cap(sq.flat) >= need && len(sq.states) == rows {
			sq.flat = sq.flat[:need]
			if st := s.stats; st != nil {
				st.pool.SeqReuses++
			}
			return sq
		}
	}
	if st := s.stats; st != nil {
		st.pool.SeqAllocs++
	}
	sq := &sequence{
		flat:   make([]logic.Val, need),
		states: make([][]logic.Val, rows),
	}
	for u := 0; u < rows; u++ {
		sq.states[u] = sq.flat[u*nFF : (u+1)*nFF : (u+1)*nFF]
	}
	return sq
}

// seqFromStates builds the expansion's base sequence from a state matrix.
func (s *Simulator) seqFromStates(states [][]logic.Val) *sequence {
	if s.cfg.Reference {
		return &sequence{states: cloneStates(states)}
	}
	sq := s.newSeq()
	for u, row := range states {
		copy(sq.states[u], row)
	}
	return sq
}

// cloneSeq duplicates a sequence for a phase-2 expansion.
func (s *Simulator) cloneSeq(src *sequence) *sequence {
	if s.cfg.Reference {
		return &sequence{states: cloneStates(src.states)}
	}
	dst := s.newSeq()
	copy(dst.flat, src.flat)
	return dst
}

// releaseSeqs returns expansion sequences to the pool once resimulation is
// done with them. Only flat-backed (pooled) sequences are recycled.
func (s *Simulator) releaseSeqs(seqs []*sequence) {
	for _, sq := range seqs {
		if sq.flat != nil {
			s.pools.seqFree = append(s.pools.seqFree, sq)
		}
	}
}

// marksScratch returns a zeroed []bool of length L+1 for expand's marked
// time units. The buffer is reused across expand calls within a fault (the
// retry's expansion never reads the first expansion's marks).
func (s *Simulator) marksScratch() []bool {
	n := len(s.T) + 1
	if s.cfg.Reference {
		return make([]bool, n)
	}
	if cap(s.pools.expMarks) < n {
		s.pools.expMarks = make([]bool, n)
		return s.pools.expMarks
	}
	marks := s.pools.expMarks[:n]
	for i := range marks {
		marks[i] = false
	}
	return marks
}

// resimScratch returns the node-value and marks buffers for resimulate.
// Neither needs clearing: EvalFrame writes every node, and resimulate
// copies the base marks over the full marks buffer per sequence.
func (s *Simulator) resimScratch() ([]logic.Val, []bool) {
	nNodes, nMarks := s.c.NumNodes(), len(s.T)+1
	if s.cfg.Reference {
		return make([]logic.Val, nNodes), make([]bool, nMarks)
	}
	if cap(s.pools.resimVals) < nNodes {
		s.pools.resimVals = make([]logic.Val, nNodes)
	}
	if cap(s.pools.resimMarks) < nMarks {
		s.pools.resimMarks = make([]bool, nMarks)
	}
	return s.pools.resimVals[:nNodes], s.pools.resimMarks[:nMarks]
}

// resimMarksScratch returns only the marks buffer, for the sparse
// resimulation path (resimulateSparse): frame values live in the event
// evaluator's overlay, so the dense node-value buffer is never
// allocated there.
func (s *Simulator) resimMarksScratch() []bool {
	nMarks := len(s.T) + 1
	if s.cfg.Reference {
		return make([]bool, nMarks)
	}
	if cap(s.pools.resimMarks) < nMarks {
		s.pools.resimMarks = make([]bool, nMarks)
	}
	return s.pools.resimMarks[:nMarks]
}
