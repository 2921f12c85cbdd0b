package cir

// Event-driven 256-lane evaluation over a resimulation region: the
// vector counterpart of EventEval.
//
// Every lane of a resimulation pass is a variation of one retained
// scalar frame (the fault's step-0 faulty trace row): most nodes carry
// that frame's value on every live lane, and only the few whose inputs
// changed need a vector gate evaluation. LaneEval keeps exactly those
// divergent nodes in an epoch-stamped VV4 overlay over the scalar
// baseline. Unstamped nodes read through to the baseline, broadcast to
// all lanes, so a frame costs nothing for the gates no event reaches.
// Exactness is gate determinism: a gate whose inputs all carry the
// baseline values produces the baseline output, so skipping it changes
// no lane.
//
// The schedule is a bitmap over positions in the region's level-sorted
// Gates: a push is one bit set, and a drain is an ascending
// TrailingZeros scan. A gate's readers sit at strictly higher levels,
// hence at later positions, so every gate is evaluated at most once per
// frame and each bit is cleared as the scan passes it.

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// laneBroadcast[v] is Broadcast4(v), indexed by logic.Val: an
// unstamped node reads its baseline value through one table lookup.
var laneBroadcast = [...]VV4{
	logic.Zero: Broadcast4(logic.Zero),
	logic.One:  Broadcast4(logic.One),
	logic.X:    Broadcast4(logic.X),
}

// LaneBroadcast returns Broadcast4(v) from a shared table. The result is
// read-only.
func LaneBroadcast(v logic.Val) *VV4 { return &laneBroadcast[v] }

// LaneEval is the event-driven 256-lane evaluator: scratch for one
// goroutine running resimulation passes over regions of one compiled
// circuit. It is not safe for concurrent use; create one per worker.
//
// A pass runs as BeginPass (bind region, fault and live word count),
// then per frame BeginFrame (bind baseline and active lanes, bump the
// epoch), any number of Seed calls, one Drain, and Value reads. Values
// are exact on the frame's active lanes of the live words only; other
// lanes hold unspecified values.
type LaneEval struct {
	cc *CC

	// vals/stamp are the overlay: vals[n] is live iff stamp[n] == epoch.
	vals  []VV4
	stamp []uint32
	epoch uint32
	// base is the scalar frame the overlay diverges from, bound per
	// frame and never written.
	base []logic.Val
	// active masks the lanes whose values matter this frame: a value
	// that differs from the baseline on other lanes only is no event.
	active [4]uint64
	// nw is the number of live lane words; words at and above it are
	// never read or written.
	nw int

	// reg is the bound region; pending is the schedule bitmap over
	// positions in reg.Gates, all-zero outside Drain.
	reg     *Region
	pending []uint64

	// The bound fault: stem is the stem fault node (never evaluated),
	// branch/pin the branch fault's gate and input position (folded with
	// the stuck value on that pin), stuck the stuck value on every lane.
	stem   netlist.NodeID
	branch netlist.GateID
	pin    int32
	stuck  VV4
}

// NewLaneEval returns a lane evaluator sized for the circuit.
func (cc *CC) NewLaneEval() *LaneEval {
	return &LaneEval{
		cc:    cc,
		vals:  make([]VV4, cc.NumNodes()),
		stamp: make([]uint32, cc.NumNodes()),
	}
}

// BeginPass binds the region every frame of the pass evaluates in,
// fault f (non-nil; use &NoFault) and the live word count nw in [1, 4].
// The region must stay unchanged until the pass ends.
func (e *LaneEval) BeginPass(reg *Region, f *fault.Fault, nw int) {
	e.reg, e.nw = reg, nw
	words := (len(reg.Gates) + 63) >> 6
	if cap(e.pending) < words {
		e.pending = make([]uint64, words)
	} else {
		e.pending = e.pending[:words]
		clear(e.pending)
	}
	e.stem, e.branch, e.pin = netlist.NoNode, netlist.NoGate, 0
	if f.Node != netlist.NoNode {
		if f.IsStem() {
			e.stem = f.Node
		} else {
			e.branch, e.pin = f.Gate, f.Pin
		}
	}
	e.stuck = Broadcast4(f.Stuck)
}

// BeginFrame starts a new frame: the overlay empties (epoch bump, no
// clearing), base becomes the read-through baseline and active the
// lanes whose values must be exact. base is aliased, not copied, and
// must already hold the faulty frame the lanes vary: it carries the
// stem fault value and the branch fault gate's faulty output.
func (e *LaneEval) BeginFrame(base []logic.Val, active [4]uint64) {
	e.base = base
	e.active = active
	e.epoch++
	if e.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch.
		clear(e.stamp)
		e.epoch = 1
	}
}

// Seed loads node id (a region source, typically a flip-flop Q node)
// with lane values v. It is an event only when v differs from the
// baseline on an active lane; the stem fault node is never seeded, as
// it holds the stuck value whatever drives it.
func (e *LaneEval) Seed(id netlist.NodeID, v *VV4) {
	if id == e.stem {
		return
	}
	if e.differs(id, &v.One, &v.Zero) {
		e.store(id, &v.One, &v.Zero)
	}
}

// Value returns node id's lane values this frame: the overlay if the
// node diverged, else the baseline broadcast. The result is read-only.
func (e *LaneEval) Value(id netlist.NodeID) *VV4 {
	if e.stamp[id] == e.epoch {
		return &e.vals[id]
	}
	return &laneBroadcast[e.base[id]]
}

// differs reports whether (one, zero) differs from node id's baseline
// on an active lane of the live words.
func (e *LaneEval) differs(id netlist.NodeID, one, zero *[4]uint64) bool {
	b := &laneBroadcast[e.base[id]]
	diff := uint64(0)
	for w := 0; w < e.nw; w++ {
		// ^ and | share a precedence level: parenthesize both XORs.
		diff |= ((one[w] ^ b.One[w]) | (zero[w] ^ b.Zero[w])) & e.active[w]
	}
	return diff != 0
}

// store records (one, zero) as node id's value and schedules every
// reading gate. Readers of a region node are region gates.
func (e *LaneEval) store(id netlist.NodeID, one, zero *[4]uint64) {
	v := &e.vals[id]
	for w := 0; w < e.nw; w++ {
		v.One[w], v.Zero[w] = one[w], zero[w]
	}
	e.stamp[id] = e.epoch
	cc, pos := e.cc, e.reg.pos
	for k := cc.FanoutStart[id]; k < cc.FanoutStart[id+1]; k++ {
		p := pos[cc.FanoutGate[k]]
		e.pending[p>>6] |= 1 << (p & 63)
	}
}

// Drain evaluates every scheduled gate in ascending position order,
// feeding output changes back into the schedule, and returns the number
// of gates evaluated. Pushes land only on later positions: higher bits
// of the current word (picked up by the inner re-read) or later words.
//
// The gate fold is inlined per operator over the live words: this loop
// is the hot core of resimulation. Only the branch fault gate takes the
// shared VV4Fold, to keep the pin-override test off the common path.
func (e *LaneEval) Drain() int {
	const allBits = ^uint64(0)
	cc, gates, nw := e.cc, e.reg.Gates, e.nw
	evals := 0
	for w := range e.pending {
		for e.pending[w] != 0 {
			bit := bits.TrailingZeros64(e.pending[w])
			e.pending[w] &^= 1 << bit
			gi := gates[w<<6|bit]
			m := &cc.meta[gi]
			if m.out == e.stem {
				continue
			}
			evals++
			var one, zero [4]uint64
			if gi == e.branch {
				fo := StartVV4(m.op)
				for k := m.lo; k < m.hi; k++ {
					if k-m.lo == e.pin {
						fo.Add(e.stuck)
					} else {
						fo.Add(*e.Value(cc.Fanin[k]))
					}
				}
				r := fo.Result()
				one, zero = r.One, r.Zero
			} else {
				switch m.op {
				case logic.And, logic.Nand:
					for w := 0; w < nw; w++ {
						one[w] = allBits
					}
					for k := m.lo; k < m.hi; k++ {
						in := e.Value(cc.Fanin[k])
						for w := 0; w < nw; w++ {
							one[w] &= in.One[w]
							zero[w] |= in.Zero[w]
						}
					}
				case logic.Xor, logic.Xnor:
					for w := 0; w < nw; w++ {
						zero[w] = allBits
					}
					for k := m.lo; k < m.hi; k++ {
						in := e.Value(cc.Fanin[k])
						for w := 0; w < nw; w++ {
							o := one[w]&in.Zero[w] | zero[w]&in.One[w]
							zero[w] = one[w]&in.One[w] | zero[w]&in.Zero[w]
							one[w] = o
						}
					}
				default: // Or, Nor, Buf, Not: the or-fold
					// (Constants have no fanin, so no event schedules them.)
					for w := 0; w < nw; w++ {
						zero[w] = allBits
					}
					for k := m.lo; k < m.hi; k++ {
						in := e.Value(cc.Fanin[k])
						for w := 0; w < nw; w++ {
							one[w] |= in.One[w]
							zero[w] &= in.Zero[w]
						}
					}
				}
				if m.op.Inverting() {
					one, zero = zero, one
				}
			}
			if e.differs(m.out, &one, &zero) {
				e.store(m.out, &one, &zero)
			}
		}
	}
	return evals
}
