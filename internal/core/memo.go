package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// collectMemo is the fault-free lane memo of pair collection (DESIGN
// §22). For every time unit 0 < u < L it holds the verdicts of one lane
// implication run, under the configured schedule, on the fault-free
// frame good.Nodes[u-1] asserting both values of every flip-flop
// unspecified in good.States[u]. A
// fault's candidate whose two lanes read no node where the faulty
// machine differs from the fault-free one gets the same verdicts on the
// faulty frame, so collectLanes copies its pair from here instead of
// implying it again. The memo is read-only once built and shared by
// every fault-loop worker.
type collectMemo struct {
	units []memoUnit
	// evals is the number of gates the build's lane passes evaluated.
	evals int
}

// memoUnit is the memo of one time unit: lane 2k+α asserts Y = α for
// the k-th flip-flop unspecified in the fault-free state. Every slice
// is exactly sized.
type memoUnit struct {
	// conf and det are the unit's lane words: lanes that conflicted,
	// and lanes whose outputs contradict the fault-free outputs.
	conf, det []uint64
	// extraAt[l] to extraAt[l+1] bound lane l's latched state variables
	// in extras, each j<<1|v, ascending j. Conflicted and detecting
	// lanes latch none.
	extraAt, extras []int32
	// footAt, footNode and footMask are the inverse footprint index,
	// word by word: entry e in [footAt[w], footAt[w+1]) says that the
	// lanes footMask[e] of lane word w read node footNode[e]. Each
	// word's entries are sorted by node.
	footAt   []int32
	footNode []netlist.NodeID
	footMask []uint64
}

// memoCell builds a simulator's collectMemo once, on the first fault
// that reaches lane collection; clones share the cell.
type memoCell struct {
	once sync.Once
	m    *collectMemo
}

// collectMemo returns the simulator's fault-free lane memo, building it
// on first use. The build's time and lane gate evaluations are charged
// to the fault whose collection triggered it.
func (s *Simulator) collectMemo() *collectMemo {
	s.memo.once.Do(func() {
		var start time.Time
		if s.cfg.Metrics {
			start = time.Now()
		}
		s.memo.m = s.buildMemo()
		if s.cfg.Metrics {
			s.rec.work.ImplyNS += int64(time.Since(start))
		}
		s.rec.work.ImplyLaneEvals += int64(s.memo.m.evals)
	})
	return s.memo.m
}

// buildMemo runs the fault-free lane passes of every time unit and
// records their verdicts, latched state variables and footprints.
//
// A lane's footprint is every node of every gate adjacent (driver or
// reader) to a node whose value the lane changed, its asserted D node
// included, plus those nodes themselves. Every rule the kernel fires on
// the lane reads only such nodes, so a base that agrees with the
// fault-free frame on the footprint (and binds no fault there) yields
// the same fixpoint, conflict and detection on the lane.
//
// The units are carved from seven memo-wide slabs, one per memoUnit
// field. The lane-count-driven ones (conf, det, extraAt, footAt) are
// sized exactly up front; extras, footNode and footMask open fresh
// slabs sized by the entries per lane seen so far (memoScratch.more).
func (s *Simulator) buildMemo() *collectMemo {
	m := &collectMemo{units: make([]memoUnit, max(len(s.T), 1))}
	nn := s.cc.NumNodes()
	b := &memoScratch{cc: s.cc, lf: s.laneFrame(), rounds: s.implyRounds(), mark: make([]uint64, nn), marked: make([]netlist.NodeID, 0, nn)}
	units, words := max(len(s.T)-1, 0), 0
	for u := 1; u < len(s.T); u++ {
		nx := logic.CountX(s.good.States[u])
		b.lanesLeft += 2 * nx
		words += (2*nx + 63) >> 6 // MaxLanes is a whole number of words
	}
	b.conf.reserve(words, 0)
	b.det.reserve(words, 0)
	b.extraAt.reserve(b.lanesLeft+units, 0)
	b.footAt.reserve(words+units, 0)
	for u := 1; u < len(s.T); u++ {
		m.units[u] = b.unit(s.good, u)
	}
	m.evals = b.evals
	return m
}

// memoScratch is buildMemo's working state: the memo's slabs, the
// lane counts that size their growth, and the scratch of one unit's
// passes, sized once: mark and marked accumulate one lane word's
// footprint by node (a word marks each node at most once).
type memoScratch struct {
	cc *cir.CC
	lf *implic.LaneFrame
	// rounds is the configured schedule's round bound (implyRounds).
	rounds int
	evals  int

	conf, det, footMask memoSlab[uint64]
	extraAt, extras     memoSlab[int32]
	footAt              memoSlab[int32]
	footNode            memoSlab[netlist.NodeID]
	// lanesDone and lanesLeft count the lanes of the units built and
	// not yet built.
	lanesDone, lanesLeft int

	xs  []int
	hot []laneHot

	mark   []uint64
	marked []netlist.NodeID
}

// memoSlab is one of the memo's append-only slabs: a unit is appended
// at its tail and carved off exactly sized. A unit that outgrows the
// slab moves, with the entries it has so far, to a fresh slab; carved
// units are never copied, and stay valid because a slab never moves.
type memoSlab[T any] struct {
	buf []T
	// at is where the unit being built starts in buf; n counts the
	// entries of the units carved so far.
	at, n int
}

// reserve makes room for k more entries of the unit being built; a
// fresh slab has room for more besides.
func (s *memoSlab[T]) reserve(k, more int) {
	if len(s.buf)+k <= cap(s.buf) {
		return
	}
	cur := s.buf[s.at:]
	s.buf = append(make([]T, 0, len(cur)+k+more), cur...)
	s.at = 0
}

// carve returns the unit built since the last carve.
func (s *memoSlab[T]) carve() []T {
	u := s.buf[s.at:len(s.buf):len(s.buf)]
	s.at = len(s.buf)
	s.n += len(u)
	return u
}

// unitLen is the number of entries the unit being built holds so far.
func (s *memoSlab[T]) unitLen() int32 { return int32(len(s.buf) - s.at) }

// more is the spare room of a fresh slab that holds n entries of the
// units built so far: as many entries per lane as those units took, for
// the lanes left, but at most max(n, floor), since the earliest units
// (the least specified states) have the largest footprints per lane.
// Before any unit is built it is floor.
func (b *memoScratch) more(n, floor int) int {
	if b.lanesDone == 0 {
		return floor
	}
	return min(n*b.lanesLeft/b.lanesDone, max(n, floor))
}

// unit runs the lane passes of time unit u over the fault-free trace
// good and returns its memo, carved from the slabs.
func (b *memoScratch) unit(good *seqsim.Trace, u int) memoUnit {
	base := good.Nodes[u-1]
	b.xs = b.xs[:0]
	for j, v := range good.States[u] {
		if v == logic.X {
			b.xs = append(b.xs, j)
		}
	}
	lf := b.lf
	for c0 := 0; c0 < len(b.xs); c0 += implic.MaxLanes / 2 {
		chunk := b.xs[c0:min(len(b.xs), c0+implic.MaxLanes/2)]
		nw := (2*len(chunk) + 63) >> 6
		lf.Begin(nil, base, 2*len(chunk))
		for k, i := range chunk {
			lf.AssertNextState(i, 2*k, logic.Zero)
			lf.AssertNextState(i, 2*k+1, logic.One)
		}
		b.evals += lf.ImplyFixpoint(b.rounds)
		conf, det := laneVerdicts(lf, good.Outputs[u-1], nw)
		b.conf.buf = append(b.conf.buf, conf[:nw]...)
		b.det.buf = append(b.det.buf, det[:nw]...)
		b.hot = latched(lf, b.xs, &conf, &det, nw, b.hot[:0])
		for l := 0; l < 2*len(chunk); l++ {
			b.extraAt.buf = append(b.extraAt.buf, b.extras.unitLen())
			w, bit := l>>6, uint(l&63)
			if (conf[w]|det[w])>>bit&1 != 0 {
				continue
			}
			b.extras.reserve(len(b.hot), b.more(b.extras.n, b.lanesLeft))
			for _, h := range b.hot {
				switch {
				case h.v.One[w]>>bit&1 != 0:
					b.extras.buf = append(b.extras.buf, int32(h.j)<<1|1)
				case h.v.Zero[w]>>bit&1 != 0:
					b.extras.buf = append(b.extras.buf, int32(h.j)<<1)
				}
			}
		}
		// Footprint, one lane word at a time: the gates adjacent to each
		// node a lane changed, on the lanes that changed it. An asserted
		// D node is X in the fault-free frame, so its own lanes always
		// change it. (No rule writes a lane outside the pass.)
		for w := 0; w < nw; w++ {
			for _, n := range lf.Touched() {
				v, bv := lf.Value(n), cir.LaneBroadcast(base[n])
				if c := v.One[w] ^ bv.One[w] | v.Zero[w] ^ bv.Zero[w]; c != 0 {
					b.adjacent(n, c)
				}
			}
			b.flush()
		}
	}
	b.extraAt.buf = append(b.extraAt.buf, b.extras.unitLen())
	b.footAt.buf = append(b.footAt.buf, b.footNode.unitLen())
	b.lanesDone += 2 * len(b.xs)
	b.lanesLeft -= 2 * len(b.xs)
	return memoUnit{
		conf: b.conf.carve(), det: b.det.carve(),
		extraAt: b.extraAt.carve(), extras: b.extras.carve(),
		footAt: b.footAt.carve(), footNode: b.footNode.carve(), footMask: b.footMask.carve(),
	}
}

// adjacent adds the lanes c to node n and to every node of the gates
// adjacent to it: its driver and its readers.
func (b *memoScratch) adjacent(n netlist.NodeID, c uint64) {
	cc := b.cc
	b.add(n, c)
	if d := cc.Driver[n]; d != netlist.NoGate {
		b.addGate(d, c)
	}
	for _, g := range cc.FanoutGate[cc.FanoutStart[n]:cc.FanoutStart[n+1]] {
		b.addGate(g, c)
	}
}

func (b *memoScratch) addGate(g netlist.GateID, c uint64) {
	cc := b.cc
	b.add(cc.GOut[g], c)
	for _, n := range cc.Fanin[cc.FaninStart[g]:cc.FaninStart[g+1]] {
		b.add(n, c)
	}
}

func (b *memoScratch) add(n netlist.NodeID, c uint64) {
	if b.mark[n] == 0 {
		b.marked = append(b.marked, n)
	}
	b.mark[n] |= c
}

// flush appends the marked lane word to the unit's footprint index, one
// entry per node in ascending order, and clears the marks.
func (b *memoScratch) flush() {
	b.footAt.buf = append(b.footAt.buf, b.footNode.unitLen())
	k, nn := len(b.marked), len(b.mark)
	b.footNode.reserve(k, b.more(b.footNode.n, nn))
	b.footMask.reserve(k, b.more(b.footMask.n, nn))
	slices.Sort(b.marked)
	for _, n := range b.marked {
		b.footNode.buf = append(b.footNode.buf, n)
		b.footMask.buf = append(b.footMask.buf, b.mark[n])
		b.mark[n] = 0
	}
	b.marked = b.marked[:0]
}

// dirty fills d with unit u's lanes whose footprint reads a node where
// the faulty frame bad differs from the fault-free frame, the node of a
// stem fault, or the output of a branch fault's gate, and returns it.
// (A stem node that does not differ holds the stuck value, where the
// stem binding changes no rule; it is marked anyway so that exactness
// does not rest on that argument.)
func (m *collectMemo) dirty(u int, f *fault.Fault, cc *cir.CC, bad, good []logic.Val, d []uint64) []uint64 {
	mu := &m.units[u]
	d = append(d[:0], make([]uint64, len(mu.conf))...)
	site := netlist.NoNode
	if f.Node != netlist.NoNode {
		site = f.Node
		if !f.IsStem() {
			site = cc.GOut[f.Gate]
		}
	}
	for w := range d {
		for e := mu.footAt[w]; e < mu.footAt[w+1]; e++ {
			if n := mu.footNode[e]; bad[n] != good[n] || n == site {
				d[w] |= mu.footMask[e]
			}
		}
	}
	return d
}

// lane returns the verdicts and latched state variables of lane l of
// unit u.
func (m *collectMemo) lane(u, l int) (conf, det bool, extras []int32) {
	mu := &m.units[u]
	w, b := l>>6, uint(l&63)
	if mu.conf[w]>>b&1 != 0 {
		return true, false, nil
	}
	if mu.det[w]>>b&1 != 0 {
		return false, true, nil
	}
	return false, false, mu.extras[mu.extraAt[l]:mu.extraAt[l+1]]
}
