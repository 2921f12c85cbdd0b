package cir

// Event-driven 64-lane evaluation: the vector counterpart of EventEval.
//
// Every lane of a resimulation pass refines one retained scalar frame
// (the fault's step-0 faulty trace row): it agrees with the frame on
// every binary node and may only specify nodes the frame leaves X. Most
// nodes carry that frame's value on every live lane, and only the few
// whose inputs changed need a vector gate evaluation. LaneEval keeps
// exactly those divergent nodes in an epoch-stamped overlay of one-word
// VV values (one One/Zero word pair, 16 bytes, per node) over the
// scalar baseline. Unstamped nodes read through to the baseline,
// broadcast to all lanes, so a frame costs nothing for the gates no
// event reaches. Two rules skip a scheduled gate, both exact:
//   - gate determinism: a gate whose inputs all carry the baseline
//     values produces the baseline output, so a gate no event reaches
//     is never scheduled;
//   - monotonicity: three-valued logic is monotone, so a gate whose
//     baseline output is binary produces that value on every lane that
//     refines the frame, and the drain pops it without loading its
//     fanin. This also covers the stem fault node, which holds its
//     binary stuck value in the baseline.
// A pass is one 64-bit word of lanes; callers with more lanes run them
// as several passes.
//
// The schedule is a bitmap over whole-circuit positions in cc.Order,
// and the drain walks the compiled circuit's position-ordered view
// (cc.Positions), which bitsim's evaluator shares: a push is one bit
// set, and a drain is an ascending TrailingZeros scan. A gate's readers
// sit at strictly higher levels, hence at later positions, so every
// gate is evaluated at most once per frame and each bit is cleared as
// the scan passes it. Events only ever follow fanout, so a frame's work
// is bounded by the fanout closure of its seeds, with no per-pass
// region to compute. The evaluator records the nodes it stores per
// frame (Touched), so a caller scans only the divergent flip-flop and
// output nodes instead of every candidate.

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// vvBroadcast[v] is Broadcast(v), indexed by logic.Val: an unstamped
// node reads its baseline value through one table lookup.
var vvBroadcast = [...]VV{
	logic.Zero: Broadcast(logic.Zero),
	logic.One:  Broadcast(logic.One),
	logic.X:    Broadcast(logic.X),
}

// LaneEval is the event-driven 64-lane evaluator: scratch for one
// goroutine running resimulation passes over one compiled circuit. It
// is not safe for concurrent use; create one per worker.
//
// A pass runs as BeginPass (bind the fault), then per frame BeginFrame
// (bind baseline and active lanes, bump the epoch), any number of Seed
// calls, one Drain, and Value and Touched reads. Values are exact on
// the frame's active lanes only; other lanes hold unspecified values.
// Contract: every seeded value refines the baseline on every active
// lane (it may differ from the baseline only where the baseline is X),
// so every lane refines the base frame, and a node binary in the
// baseline is never stored or touched.
type LaneEval struct {
	cc *CC
	// pos is cc.Positions(): gate records, fanin and fanout by position.
	pos *Positions

	// vals/stamp are the overlay: vals[n] is live iff stamp[n] == epoch.
	vals  []VV
	stamp []uint32
	epoch uint32
	// base is the scalar frame the overlay diverges from, bound per
	// frame and never written.
	base []logic.Val
	// active masks the lanes whose values matter this frame: a value
	// that differs from the baseline on other lanes only is no event.
	active uint64

	// pending is the schedule bitmap over cc.Order positions, all-zero
	// outside Drain.
	pending []uint64
	// touched lists the nodes stored this frame, in store order.
	touched []netlist.NodeID

	// The bound fault: branch/pin the branch fault gate's position and
	// input pin (folded with the stuck value on that pin, -1: none),
	// stuck the stuck value on every lane. A stem fault needs no binding:
	// its node is binary in every baseline.
	branch int
	pin    int32
	stuck  VV
}

// NewLaneEval returns a lane evaluator sized for the circuit.
func (cc *CC) NewLaneEval() *LaneEval {
	return &LaneEval{
		cc:      cc,
		pos:     cc.Positions(),
		vals:    make([]VV, cc.NumNodes()),
		stamp:   make([]uint32, cc.NumNodes()),
		pending: make([]uint64, (len(cc.Order)+63)>>6),
	}
}

// BeginPass binds fault f (non-nil; use &NoFault) for every frame of
// the pass.
func (e *LaneEval) BeginPass(f *fault.Fault) {
	e.branch, e.pin = -1, 0
	if f.Node != netlist.NoNode && !f.IsStem() {
		e.branch, e.pin = int(e.cc.OrderPos[f.Gate]), f.Pin
	}
	e.stuck = vvBroadcast[f.Stuck]
}

// BeginFrame starts a new frame: the overlay empties (epoch bump, no
// clearing), base becomes the read-through baseline and active the
// lanes whose values must be exact. base is aliased, not copied, and
// must already hold the faulty frame the lanes refine: it carries the
// stem fault value and the branch fault gate's faulty output. Every
// lane the frame's seeds describe must refine base (see LaneEval).
func (e *LaneEval) BeginFrame(base []logic.Val, active uint64) {
	e.base = base
	e.active = active
	e.touched = e.touched[:0]
	e.epoch++
	if e.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch.
		clear(e.stamp)
		e.epoch = 1
	}
}

// Seed loads node id (typically a flip-flop Q node) with lane values v,
// which must refine the baseline value on every active lane. It is an
// event only when v differs from the baseline on an active lane, which
// the contract allows only where the baseline is X.
func (e *LaneEval) Seed(id netlist.NodeID, v VV) {
	if e.differs(id, v) {
		e.store(id, v)
	}
}

// Value returns node id's lane values this frame: the overlay if the
// node diverged, else the baseline broadcast.
func (e *LaneEval) Value(id netlist.NodeID) VV {
	if e.stamp[id] == e.epoch {
		return e.vals[id]
	}
	return vvBroadcast[e.base[id]]
}

// Touched lists the nodes whose overlay value this frame differs from
// the baseline on an active lane, in the order they were stored: the
// seeded nodes first, then gate outputs in ascending cc.Order position.
// Every other node holds the baseline on every active lane. The slice
// is valid until the next BeginFrame.
func (e *LaneEval) Touched() []netlist.NodeID { return e.touched }

// differs reports whether v differs from node id's baseline on an
// active lane.
func (e *LaneEval) differs(id netlist.NodeID, v VV) bool {
	b := vvBroadcast[e.base[id]]
	// ^ and | share a precedence level: parenthesize both XORs.
	return ((v.One^b.One)|(v.Zero^b.Zero))&e.active != 0
}

// store records v as node id's value and schedules every reading gate.
func (e *LaneEval) store(id netlist.NodeID, v VV) {
	e.vals[id] = v
	if e.stamp[id] != e.epoch {
		e.stamp[id] = e.epoch
		e.touched = append(e.touched, id)
	}
	start := e.cc.FanoutStart
	for _, p := range e.pos.Fanout[start[id]:start[id+1]] {
		e.pending[p>>6] |= 1 << (p & 63)
	}
}

// Drain evaluates every scheduled gate whose baseline output is X in
// ascending position order, feeding output changes back into the
// schedule, and returns the number of gates it folded; a scheduled gate
// with a binary baseline output is popped and skipped. Pushes land only
// on later positions: higher bits of the current word (picked up by the
// inner re-read) or later words.
//
// The gate fold is inlined per operator: this loop is the hot core of
// resimulation. Only the branch fault gate takes the shared VVFold, to
// keep the pin-override test off the common path.
func (e *LaneEval) Drain() int {
	if len(e.touched) == 0 {
		return 0 // nothing seeded: nothing scheduled
	}
	gates, fanin := e.pos.Gates, e.pos.Fanin
	evals := 0
	for w := range e.pending {
		for e.pending[w] != 0 {
			bit := bits.TrailingZeros64(e.pending[w])
			e.pending[w] &^= 1 << bit
			p := w<<6 | bit
			g := &gates[p]
			if e.base[g.Out] != logic.X {
				// A binary baseline output is fixed on every lane that
				// refines the frame: nothing to fold.
				continue
			}
			evals++
			var v VV
			ins := fanin[g.Lo:g.Hi]
			switch {
			case p == e.branch:
				fo := StartVV(g.Op)
				for k, id := range ins {
					if int32(k) == e.pin {
						fo.Add(e.stuck)
					} else {
						fo.Add(e.Value(id))
					}
				}
				v = fo.Result()
			case g.Op == logic.And || g.Op == logic.Nand:
				v.One = ^uint64(0)
				for _, id := range ins {
					in := e.Value(id)
					v.One &= in.One
					v.Zero |= in.Zero
				}
			case g.Op == logic.Xor || g.Op == logic.Xnor:
				v.Zero = ^uint64(0)
				for _, id := range ins {
					in := e.Value(id)
					v.One, v.Zero = v.One&in.Zero|v.Zero&in.One, v.One&in.One|v.Zero&in.Zero
				}
			default: // Or, Nor, Buf, Not: the or-fold
				// (Constants have no fanin, so no event schedules them.)
				v.Zero = ^uint64(0)
				for _, id := range ins {
					in := e.Value(id)
					v.One |= in.One
					v.Zero &= in.Zero
				}
			}
			if p != e.branch && g.Op.Inverting() {
				v.One, v.Zero = v.Zero, v.One
			}
			if e.differs(g.Out, v) {
				e.store(g.Out, v)
			}
		}
	}
	return evals
}
