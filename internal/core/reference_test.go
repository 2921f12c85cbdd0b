// Reference implementations the production engines are tested
// against: the allocate-per-pair pair collection (collectPairsRef, a
// fresh serial implication frame per pair side and chase level, and a
// map-backed sv set) and the dense serial resimulation of Section 3.4
// (resimulateRef, one materialized sequence at a time through
// full-frame evaluations). crossCheckCollect, TestCollectDeepCrossCheck
// and FuzzCollectMemo compare collectPairsRef with the lane collection;
// crossCheckBPResim, testResimulate and FuzzResimCrossCheck compare
// resimulateRef with the vector pass. trivialPairs and expandRef are
// the list-based trivial expansion the closed form in expand is checked
// against (TestTrivialSelectMatchesList).
package core

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// collectPairsRef is the allocate-per-pair collectPairs.
func (s *Simulator) collectPairsRef(f *fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
	L := len(s.T)
	nFF := s.c.NumFFs()
	var pairs []pairInfo
	capReached := func() bool {
		return s.cfg.MaxPairs > 0 && len(pairs) >= s.cfg.MaxPairs
	}

	if nout[0] > 0 {
		for i := 0; i < nFF; i++ {
			if bad.States[0][i] != logic.X || capReached() {
				continue
			}
			pairs = append(pairs, s.trivialPair(0, i))
		}
	}
	for u := 1; u < L; u++ {
		if nout[u-1] == 0 || capReached() {
			break // nout is non-increasing: later units are useless too
		}
		for i := 0; i < nFF; i++ {
			if bad.States[u][i] != logic.X || capReached() {
				continue
			}
			if !s.cfg.UseBackwardImplications {
				pairs = append(pairs, s.trivialPair(u, i))
				continue
			}
			pairs = append(pairs, s.collectOneRef(f, bad, u, i))
		}
	}
	return pairs
}

// trivialPairs enumerates the [4] baseline's trivial (single-variable)
// pairs for every candidate (u, i): the units with N_out(u) > 0, in
// (u, i) order, cut after Config.MaxPairs pairs. It is the list the
// phase 2 fallback and the portfolio retry select from.
func (s *Simulator) trivialPairs(bad *seqsim.Trace, nout []int) []pairInfo {
	var out []pairInfo
fill:
	for u := 0; u < len(s.T) && nout[u] > 0; u++ { // nout is non-increasing
		for i := 0; i < s.c.NumFFs(); i++ {
			if bad.States[u][i] != logic.X {
				continue
			}
			if s.cfg.MaxPairs > 0 && len(out) >= s.cfg.MaxPairs {
				break fill
			}
			out = append(out, s.trivialPair(u, i))
		}
	}
	return out
}

// expandRef is expand with every phase 2 step chosen by selectPair over
// a pair list: the collected pairs, then trivialPairs once they are
// exhausted. expandRef(trivialPairs(...)) is the portfolio retry's
// expansion.
func (s *Simulator) expandRef(pairs []pairInfo, bad *seqsim.Trace, nsv, nout []int, out *FaultOutcome) *expansion {
	x := s.newExpansion(bad.States)
	s.phase1(pairs, x, out)
	var fallback []pairInfo
	for x.lanes() < s.cfg.NStates {
		best := s.selectPair(pairs, x, nsv, nout)
		if best < 0 && s.cfg.UseBackwardImplications {
			if fallback == nil {
				fallback = s.trivialPairs(bad, nout)
			}
			pairs = fallback
			best = s.selectPair(pairs, x, nsv, nout)
		}
		if best < 0 {
			break
		}
		s.addStep(x, &pairs[best], out)
	}
	return x
}

// collectOneRef performs backward implication of y_i at time u for both
// values with a fresh implication frame per side and a map-backed sv set.
func (s *Simulator) collectOneRef(f *fault.Fault, bad *seqsim.Trace, u, i int) pairInfo {
	p := pairInfo{u: u, i: i}
	svSet := map[int]bool{i: true}
	for a := 0; a < 2; a++ {
		alpha := logic.Val(a)
		fr := implic.New(s.c, f, bad.Nodes[u-1])
		ok := fr.AssignNextState(i, alpha) && s.implyRef(fr)
		if !ok {
			p.conf[a] = true
			continue
		}
		if s.frameDetectsRef(fr, u-1) {
			p.detect[a] = true
			continue
		}
		if s.cfg.BackwardDepth > 1 {
			switch s.deepBackwardRef(f, bad, fr, u-1, s.cfg.BackwardDepth-1) {
			case deepConflict:
				p.conf[a] = true
				continue
			case deepDetect:
				p.detect[a] = true
				continue
			}
		}
		var extra []svAssign
		for j := 0; j < s.c.NumFFs(); j++ {
			if bad.States[u][j] != logic.X {
				continue
			}
			if v := fr.NextState(j); v.IsBinary() {
				extra = append(extra, svAssign{j: j, v: v})
				svSet[j] = true
			}
		}
		p.extra[a] = extra
	}
	for j := range svSet {
		p.sv = append(p.sv, j)
	}
	// Map iteration order is random; the expansion path depends on sv
	// order, so sort for reproducible outcomes (same order as the pooled
	// path).
	sort.Ints(p.sv)
	return p
}

// implyRef runs the configured schedule on a serial frame, counting
// the call in the fault's record as the lane collection does.
func (s *Simulator) implyRef(fr *implic.Frame) bool {
	s.rec.work.ImplyCalls++
	if s.cfg.Schedule == Fixpoint {
		return fr.ImplyFixpoint(s.cfg.FixpointRounds)
	}
	return fr.ImplyTwoPass()
}

// frameDetectsRef reports whether the frame's outputs contradict the
// fault-free outputs at time unit u.
func (s *Simulator) frameDetectsRef(fr *implic.Frame, u int) bool {
	g := s.good.Outputs[u]
	for j := range g {
		if v := fr.Output(j); v.IsBinary() && g[j].IsBinary() && v != g[j] {
			return true
		}
	}
	return false
}

// deepResult is the outcome of deepBackwardRef.
type deepResult uint8

const (
	deepNothing deepResult = iota
	deepConflict
	deepDetect
)

// deepBackwardRef recursively chases newly specified present-state
// variables into earlier frames, allocating a frame per time unit.
func (s *Simulator) deepBackwardRef(f *fault.Fault, bad *seqsim.Trace, fr *implic.Frame, u, depth int) deepResult {
	if depth <= 0 || u == 0 {
		return deepNothing
	}
	var newly []svAssign
	for j := 0; j < s.c.NumFFs(); j++ {
		if bad.States[u][j] != logic.X {
			continue
		}
		if v := fr.PresentState(j); v.IsBinary() {
			newly = append(newly, svAssign{j: j, v: v})
		}
	}
	if len(newly) == 0 {
		return deepNothing
	}
	prev := implic.New(s.c, f, bad.Nodes[u-1])
	for _, a := range newly {
		if !prev.AssignNextState(a.j, a.v) {
			return deepConflict
		}
	}
	if !s.implyRef(prev) {
		return deepConflict
	}
	if s.frameDetectsRef(prev, u-1) {
		return deepDetect
	}
	return s.deepBackwardRef(f, bad, prev, u-1, depth-1)
}

// sequence is one expanded state sequence: states[u][j] is the value of
// state variable j at time u, u in [0, L].
type sequence struct {
	states [][]logic.Val
}

// sequences materializes the expansion's sequences with Procedure 2's
// duplication loop, sequence l at index l. Their rows are carved from
// one slab.
func (x *expansion) sequences() []*sequence {
	rows, nFF := len(x.s0), len(x.s0[0])
	flat := make([]logic.Val, x.lanes()*rows*nFF)
	carve := func(src [][]logic.Val) *sequence {
		sq := &sequence{states: make([][]logic.Val, rows)}
		for u := range sq.states {
			sq.states[u], flat = flat[:nFF:nFF], flat[nFF:]
			copy(sq.states[u], src[u])
		}
		return sq
	}
	seqs := []*sequence{carve(x.s0)}
	for _, st := range x.steps {
		grown := make([]*sequence, 0, 2*len(seqs))
		for _, sq := range seqs {
			dup := carve(sq.states)
			for _, a := range st.extra[0] {
				sq.states[st.u][a.j] = a.v
			}
			for _, a := range st.extra[1] {
				dup.states[st.u][a.j] = a.v
			}
			grown = append(grown, sq, dup)
		}
		seqs = grown
	}
	return seqs
}

// resimulateRef is the paper's Section 3.4 resimulation, one sequence
// at a time: each of x's materialized sequences is resimulated at its
// marked time units through full-frame evaluations, propagating newly
// specified state variables forward, until a detection or an
// infeasibility conflict resolves it or no marked units remain. The
// fault is detected when every sequence resolves.
func (s *Simulator) resimulateRef(f *fault.Fault, x *expansion) bool {
	c := s.c
	L := len(s.T)
	// EvalFrame writes every node and the base marks are copied over the
	// full buffer per sequence, so neither needs clearing.
	ev := s.cc.NewEvaluator()
	vals, marks := make([]logic.Val, c.NumNodes()), make([]bool, L+1)
	for _, sq := range x.sequences() {
		copy(marks, x.marks)
		resolved := false
		for u := 0; u < L && !resolved; u++ {
			if !marks[u] {
				continue
			}
			ev.EvalFrame(s.T[u], sq.states[u], f, vals)
			// Output conflict with the fault-free response: detection.
			g := s.good.Outputs[u]
			for j, id := range c.Outputs {
				v := vals[id]
				if v.IsBinary() && g[j].IsBinary() && v != g[j] {
					resolved = true
					break
				}
			}
			if resolved {
				break
			}
			// Compare the computed next state with the sequence's state at
			// u+1: a conflict means the sequence is infeasible; new values
			// refine it and mark u+1.
			next := sq.states[u+1]
			for j, ff := range c.FFs {
				v := f.Observed(ff.Q, vals[ff.D])
				if !v.IsBinary() {
					continue
				}
				switch next[j] {
				case logic.X:
					next[j] = v
					marks[u+1] = true
				case v:
					// consistent
				default:
					resolved = true // infeasible state sequence
				}
				if resolved {
					break
				}
			}
		}
		if !resolved {
			return false
		}
	}
	return true
}
