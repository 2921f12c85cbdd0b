package cir

// The overlay state every event-driven kernel shares: step 0's
// EventEval, resimulation's LaneEval, bitsim's prescreen evaluator and
// implic's LaneFrame. Each keeps its own value array (scalar, 64-lane,
// 256-lane or two-plane) over a read-only base frame, and its own gate
// fold and drain loop, since those are the hot loops and the methods of
// a generic kernel would not inline. What they have in common lives
// here, as small concrete methods the compiler inlines:
//   - the epoch: a node's overlay value is live iff its stamp equals the
//     frame's epoch, so starting a frame is one increment instead of a
//     clear of every node;
//   - the touched list of the nodes stamped this frame;
//   - the schedule: a bitmap over cc.Order positions. A gate's fanin
//     drivers sit at lower positions and its readers at higher ones
//     (Positions), so an ascending drain evaluates every gate at most
//     once per frame, after all of its writers.
//
// The bitmap tracks the word range [lo, hi] that holds every pending
// bit, and a drain scans only that range. A frame carries a handful of
// events across a long circuit: when step 0 scanned every level bucket
// of its schedule, 27% of Table 2 time went to empty buckets, and an
// unbounded scan of every bitmap word cost step 0 8-10% on sg15850.

import (
	"math"
	"math/bits"

	"repro/internal/netlist"
)

// Overlay is the epoch-stamped node overlay and position schedule of one
// event-driven kernel. It is not safe for concurrent use; each kernel
// instance owns one.
type Overlay struct {
	// stamp[n] == epoch marks node n live this frame.
	stamp []uint32
	epoch uint32
	// touched lists the live nodes in the order they were first marked.
	touched []netlist.NodeID
	// pending is the schedule bitmap over positions; every set bit lies
	// in words [lo, hi], and lo > hi when nothing is pending.
	pending []uint64
	lo, hi  int
	// start and fanout are cc.FanoutStart and Positions.Fanout: node n
	// is read by the gates at positions fanout[start[n]:start[n+1]].
	start  []int32
	fanout []int32
}

// NewOverlay returns an empty overlay sized for the circuit.
func (cc *CC) NewOverlay() Overlay {
	return Overlay{
		stamp:   make([]uint32, cc.NumNodes()),
		pending: make([]uint64, (cc.NumGates()+63)>>6),
		lo:      math.MaxInt,
		hi:      -1,
		start:   cc.FanoutStart,
		fanout:  cc.Positions().Fanout,
	}
}

// Begin starts a frame: every node reads through to the base again and
// the touched list empties. The schedule is untouched; drains leave it
// empty.
func (o *Overlay) Begin() {
	o.touched = o.touched[:0]
	o.epoch++
	if o.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch, so pay the
		// one-in-4-billion dense clear and restart at 1.
		clear(o.stamp)
		o.epoch = 1
	}
}

// Live reports whether node n has been marked this frame.
func (o *Overlay) Live(n netlist.NodeID) bool { return o.stamp[n] == o.epoch }

// Mark marks node n live and, the first time this frame, appends it to
// the touched list. It reports whether this was the first mark.
func (o *Overlay) Mark(n netlist.NodeID) bool {
	if o.stamp[n] == o.epoch {
		return false
	}
	o.stamp[n] = o.epoch
	o.touched = append(o.touched, n)
	return true
}

// Touched lists the nodes marked this frame in first-mark order. The
// slice is valid until the next Begin.
func (o *Overlay) Touched() []netlist.NodeID { return o.touched }

// Readers returns the positions of the gates reading node n.
func (o *Overlay) Readers(n netlist.NodeID) []int32 {
	return o.fanout[o.start[n]:o.start[n+1]]
}

// Push schedules the gate at position p.
func (o *Overlay) Push(p int32) {
	w := int(p >> 6)
	o.pending[w] |= 1 << (p & 63)
	if w < o.lo {
		o.lo = w
	}
	if w > o.hi {
		o.hi = w
	}
}

// PushReaders schedules every gate reading node n. It is Push over
// Readers(n) with the range kept in registers across the loop.
func (o *Overlay) PushReaders(n netlist.NodeID) {
	lo, hi := o.lo, o.hi
	for _, p := range o.Readers(n) {
		w := int(p >> 6)
		o.pending[w] |= 1 << (p & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	o.lo, o.hi = lo, hi
}

// Next pops the lowest pending position, or returns -1 once nothing is
// pending. Pushes made between calls are picked up, wherever they land.
func (o *Overlay) Next() int {
	for ; o.lo <= o.hi; o.lo++ {
		if w := o.pending[o.lo]; w != 0 {
			bit := bits.TrailingZeros64(w)
			o.pending[o.lo] = w &^ (1 << bit)
			return o.lo<<6 | bit
		}
	}
	o.lo, o.hi = math.MaxInt, -1
	return -1
}

// Last pops the highest pending position, or returns -1 once nothing is
// pending. Pushes made between calls are picked up, wherever they land.
func (o *Overlay) Last() int {
	for ; o.hi >= o.lo; o.hi-- {
		if w := o.pending[o.hi]; w != 0 {
			bit := 63 - bits.LeadingZeros64(w)
			o.pending[o.hi] = w &^ (1 << bit)
			return o.hi<<6 | bit
		}
	}
	o.lo, o.hi = math.MaxInt, -1
	return -1
}
