package core

import (
	"time"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/seqsim"
)

// laneHot is an unspecified state variable j at time u that some lane
// of a pass specified, with its latched lane values.
type laneHot struct {
	j int
	v *cir.VV4
}

// lanesCollect reports whether pair collection runs in lane passes:
// backward implications on, the two-pass schedule, and one time unit
// of backward implication (deeper chasing needs each side's serial
// frame).
func (s *Simulator) lanesCollect() bool {
	return s.cfg.UseBackwardImplications && s.cfg.Schedule == TwoPass && s.cfg.BackwardDepth <= 1
}

// collectLanes appends the pairs of time unit u (0 < u < L) to pairs.
// The candidates are the state variables unspecified at u, in
// ascending order and cut at the MaxPairs cap. Each pass of the lane
// implication kernel takes up to implic.MaxLanes/2 of them on the same
// base frame bad.Nodes[u-1]: lane 2k+α asserts Y_i = α for the k-th
// candidate i. The pairs equal collectOneInto's on the same candidates:
// conflict first, then detection against the fault-free outputs, then
// the extra state variables in ascending order.
func (s *Simulator) collectLanes(f *fault.Fault, bad *seqsim.Trace, u int, pairs []pairInfo) []pairInfo {
	xs := s.pools.laneXs[:0]
	for j, v := range bad.States[u] {
		if v == logic.X {
			xs = append(xs, j)
		}
	}
	s.pools.laneXs = xs
	cands := xs
	if s.cfg.MaxPairs > 0 && len(pairs)+len(cands) > s.cfg.MaxPairs {
		cands = cands[:s.cfg.MaxPairs-len(pairs)]
	}
	good := s.good.Outputs[u-1]
	for len(cands) > 0 {
		chunk := cands[:min(len(cands), implic.MaxLanes/2)]
		cands = cands[len(chunk):]
		nw := (2*len(chunk) + 63) >> 6

		lf := s.laneFrame()
		var start time.Time
		if s.cfg.Metrics {
			start = time.Now()
		}
		lf.Begin(f, bad.Nodes[u-1], 2*len(chunk))
		asserted := 0
		for k, i := range chunk {
			for a := 0; a < 2; a++ {
				if lf.AssertNextState(i, 2*k+a, logic.Val(a)) {
					asserted++
				}
			}
		}
		evals := lf.Imply()
		if s.cfg.Metrics {
			s.rec.stages.Imply += int64(time.Since(start))
		}
		s.rec.implyCalls += int64(asserted)
		s.rec.implyLaneEvals += int64(evals)

		// Verdicts: conflicted lanes, then lanes whose outputs contradict
		// the fault-free outputs.
		conf := lf.Conflicts()
		var det [4]uint64
		for j, g := range good {
			if !g.IsBinary() {
				continue
			}
			v := lf.Output(j)
			wrong := &v.One
			if g == logic.One {
				wrong = &v.Zero
			}
			for w := 0; w < nw; w++ {
				det[w] |= wrong[w]
			}
		}
		// The unspecified state variables some unresolved lane latched.
		hot := s.pools.laneHot[:0]
		for _, j := range xs {
			v := lf.NextState(j)
			set := uint64(0)
			for w := 0; w < nw; w++ {
				set |= (v.One[w] | v.Zero[w]) &^ (conf[w] | det[w])
			}
			if set != 0 {
				hot = append(hot, laneHot{j: j, v: v})
			}
		}
		s.pools.laneHot = hot

		for k, i := range chunk {
			p := pairInfo{u: u, i: i}
			s.svReset()
			s.svAdd(i)
			for a := 0; a < 2; a++ {
				l := 2*k + a
				w, b := l>>6, uint(l&63)
				switch {
				case conf[w]>>b&1 != 0:
					p.conf[a] = true
				case det[w]>>b&1 != 0:
					p.detect[a] = true
				default:
					extra := s.pools.extraScratch[:0]
					for _, h := range hot {
						switch {
						case h.v.One[w]>>b&1 != 0:
							extra = append(extra, svAssign{j: h.j, v: logic.One})
						case h.v.Zero[w]>>b&1 != 0:
							extra = append(extra, svAssign{j: h.j, v: logic.Zero})
						default:
							continue
						}
						s.svAdd(h.j)
					}
					s.pools.extraScratch = extra
					p.extra[a] = s.internExtra(extra)
				}
			}
			p.sv = s.svTake()
			pairs = append(pairs, p)
		}
	}
	return pairs
}
