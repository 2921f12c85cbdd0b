package core

import (
	"math/bits"
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

// collectLanes appends the pairs of time unit u (0 < u < L) to pairs.
// The candidates are the state variables unspecified at u, in
// ascending order and cut at the MaxPairs cap. With memo set, a
// candidate unspecified in the fault-free state too whose two memo
// lanes have a clean footprint (collectMemo.dirty) takes its pair from
// the memo; every other candidate runs in lane passes on the faulty
// frame (lanePairs). The pairs equal collectPairsRef's on the same
// candidates: conflict first, then detection against the fault-free
// outputs, then the extra state variables in ascending order.
func (s *Simulator) collectLanes(f *fault.Fault, bad *seqsim.Trace, u int, pairs []pairInfo, memo bool) []pairInfo {
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
	if !memo {
		return s.lanePairs(f, bad, u, xs, cands, pairs)
	}

	// slot[k] is candidate k's memo rank, or -1 when it reruns. The rank
	// of i is the number of fault-free unspecified state variables below
	// it, counted in one walk alongside the ascending candidates.
	m := s.collectMemo()
	gs := s.good.States[u]
	dirty := m.dirty(u, f, s.cc, bad.Nodes[u-1], s.good.Nodes[u-1], s.pools.memoDirty)
	s.pools.memoDirty = dirty
	slot := s.pools.memoSlot[:0]
	rerun := s.pools.memoRerun[:0]
	rank, next := 0, 0
	for _, i := range cands {
		for ; next < i; next++ {
			if gs[next] == logic.X {
				rank++
			}
		}
		if gs[i] == logic.X && dirty[2*rank>>6]>>(2*rank&63)&3 == 0 {
			slot = append(slot, int32(rank))
			continue
		}
		slot = append(slot, -1)
		rerun = append(rerun, i)
	}
	s.pools.memoSlot, s.pools.memoRerun = slot, rerun
	fresh := s.lanePairs(f, bad, u, xs, rerun, s.pools.memoFresh[:0])
	s.pools.memoFresh = fresh

	bs := bad.States[u]
	for k, i := range cands {
		if slot[k] < 0 {
			pairs = append(pairs, fresh[0])
			fresh = fresh[1:]
			continue
		}
		p := pairInfo{u: u, i: i}
		s.svReset()
		s.svAdd(i)
		for a := 0; a < 2; a++ {
			conf, det, extras := m.lane(u, 2*int(slot[k])+a)
			p.conf[a], p.detect[a] = conf, det
			if conf || det {
				continue
			}
			// The memo latched over the fault-free unspecified state
			// variables; the pair keeps the faulty ones.
			extra := s.pools.extraScratch[:0]
			for _, e := range extras {
				if j := int(e >> 1); bs[j] == logic.X {
					extra = append(extra, svAssign{j: j, v: logic.Val(e & 1)})
					s.svAdd(j)
				}
			}
			s.pools.extraScratch = extra
			p.extra[a] = s.internExtra(extra)
		}
		p.sv = s.svTake()
		pairs = append(pairs, p)
	}
	// Every memo side asserted on an unspecified D node, as a lane pass
	// on the faulty frame would have.
	served := int64(len(cands) - len(rerun))
	s.rec.work.ImplyCalls += 2 * served
	s.rec.work.ImplyMemoHits += served
	return pairs
}

// lanePairs appends the pairs of the candidates cands (ascending) of
// time unit u to pairs, running them in lane passes on the faulty
// frame bad.Nodes[u-1]: lane 2k+α of a pass asserts Y_i = α for the
// k-th candidate i of the pass. With BackwardDepth > 1 the open sides
// of each pass chase their present-state values into earlier frames
// (chase). xs lists every state variable unspecified at u.
func (s *Simulator) lanePairs(f *fault.Fault, bad *seqsim.Trace, u int, xs, cands []int, pairs []pairInfo) []pairInfo {
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
		s.imply(lf, start)
		s.rec.work.ImplyCalls += int64(asserted)

		conf, det := laneVerdicts(lf, good, nw)
		if s.cfg.BackwardDepth > 1 {
			s.chase(f, bad, lf, u-1, 2*len(chunk), &conf, &det)
		}
		hot := latched(lf, xs, &conf, &det, nw, s.pools.laneHot[:0])
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

// imply runs the configured schedule on a begun and asserted lane
// pass, charging its gate evaluations, and with metrics on the time
// since start, to the fault's record.
func (s *Simulator) imply(lf *implic.LaneFrame, start time.Time) {
	s.rec.work.ImplyLaneEvals += int64(lf.ImplyFixpoint(s.implyRounds()))
	if s.cfg.Metrics {
		s.rec.work.ImplyNS += int64(time.Since(start))
	}
}

// implyRounds is the round bound of the configured schedule: one
// round (the paper's two passes) under TwoPass.
func (s *Simulator) implyRounds() int {
	if s.cfg.Schedule == Fixpoint {
		return s.cfg.FixpointRounds
	}
	return 1
}

// chaseCol is one present-state variable a chase level asserts: the
// lanes that newly specified it as 0 and as 1.
type chaseCol struct {
	j    int
	vals [2][4]uint64
}

// chase runs the deeper backward chase (BackwardDepth > 1) of a
// finished pass lf of n lanes on frame t. Each lane neither conflicted
// nor detecting asserts, on frame t-1, the present-state values it
// newly specified on frame t, and so on for up to BackwardDepth-1
// levels or until frame 0. Every level is one lane pass on the faulty
// frame with lf's lane layout, so lf's values stay readable. A lane
// that newly specifies nothing stops; one that conflicts, or whose
// outputs contradict the fault-free outputs, settles its side: conf or
// det gains it. A lane counts one implication call per level it
// asserts at without an outright conflict.
func (s *Simulator) chase(f *fault.Fault, bad *seqsim.Trace, lf *implic.LaneFrame, t, n int, conf, det *[4]uint64) {
	nw := (n + 63) >> 6
	var live [4]uint64
	for w := 0; w < nw; w++ {
		live[w] = ^uint64(0)
		if r := n - 64*w; r < 64 {
			live[w] = 1<<r - 1
		}
		live[w] &^= conf[w] | det[w]
	}
	prev := lf
	for level := 1; level < s.cfg.BackwardDepth && t > 0; level, t = level+1, t-1 {
		cols := s.pools.chaseCols[:0]
		var asserting [4]uint64
		for j, v := range bad.States[t] {
			if v != logic.X {
				continue
			}
			ps := prev.PresentState(j)
			c, set := chaseCol{j: j}, uint64(0)
			for w := 0; w < nw; w++ {
				c.vals[0][w], c.vals[1][w] = ps.Zero[w]&live[w], ps.One[w]&live[w]
				set |= c.vals[0][w] | c.vals[1][w]
				asserting[w] |= c.vals[0][w] | c.vals[1][w]
			}
			if set != 0 {
				cols = append(cols, c)
			}
		}
		s.pools.chaseCols = cols
		if len(cols) == 0 {
			return
		}
		live = asserting

		df := s.chaseFrame()
		var start time.Time
		if s.cfg.Metrics {
			start = time.Now()
		}
		df.Begin(f, bad.Nodes[t-1], n)
		var outright [4]uint64
		for _, c := range cols {
			for a := range c.vals {
				for w := 0; w < nw; w++ {
					for m := c.vals[a][w]; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						if !df.AssertNextState(c.j, w<<6|b, logic.Val(a)) {
							outright[w] |= 1 << b
						}
					}
				}
			}
		}
		s.imply(df, start)
		dc, dd := laneVerdicts(df, s.good.Outputs[t-1], nw)
		for w := 0; w < nw; w++ {
			s.rec.work.ImplyCalls += int64(bits.OnesCount64(live[w] &^ outright[w]))
			dc[w] &= live[w]
			dd[w] &= live[w] &^ dc[w]
			conf[w] |= dc[w]
			det[w] |= dd[w]
			live[w] &^= dc[w] | dd[w]
		}
		prev = df
	}
}

// laneVerdicts returns a finished pass's conflicted lanes and the lanes
// whose outputs contradict the fault-free outputs good.
func laneVerdicts(lf *implic.LaneFrame, good []logic.Val, nw int) (conf, det [4]uint64) {
	conf = lf.Conflicts()
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
	return conf, det
}

// latched appends to hot the state variables of xs that some lane of a
// finished pass, neither conflicted nor detecting, latched a binary
// value into.
func latched(lf *implic.LaneFrame, xs []int, conf, det *[4]uint64, nw int, hot []laneHot) []laneHot {
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
	return hot
}
