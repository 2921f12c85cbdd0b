// Reference (allocate-per-pair) implementations of the pair-collection
// path, retained verbatim from before the trail/pooling rework apart from
// the sv-ordering determinism fix (which both paths share). Enabled with
// Config.Reference; the cross-check tests assert byte-identical
// FaultOutcomes against the pooled path, and the benchmarks use it as the
// allocation baseline.
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

// collectOneRef performs backward implication of y_i at time u for both
// values with a fresh implication frame per side and a map-backed sv set.
func (s *Simulator) collectOneRef(f *fault.Fault, bad *seqsim.Trace, u, i int) pairInfo {
	p := pairInfo{u: u, i: i}
	svSet := map[int]bool{i: true}
	for a := 0; a < 2; a++ {
		alpha := logic.Val(a)
		fr := implic.New(s.c, f, bad.Nodes[u-1])
		ok := fr.AssignNextState(i, alpha) && s.imply(fr)
		if !ok {
			p.conf[a] = true
			continue
		}
		if s.frameDetects(fr, u-1) {
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
	if !s.imply(prev) {
		return deepConflict
	}
	if s.frameDetects(prev, u-1) {
		return deepDetect
	}
	return s.deepBackwardRef(f, bad, prev, u-1, depth-1)
}
