package implic

// Lane-parallel implications: the bit-parallel counterpart of
// Frame.ImplyTwoPass and Frame.ImplyFixpoint for pair collection
// (Section 3.1).
//
// Every candidate assertion Y_i = α of one time unit u starts from the
// same faulty frame (the base, bad.Nodes[u-1]), so a LaneFrame runs
// them all in one pass: lane l carries one assertion, and each node
// holds a pair of bit planes (One, Zero) over the lanes. A lane with
// neither bit is X; a lane with both bits has derived contradictory
// values and has conflicted. Only nodes whose value diverges from the
// base on some lane are stored, in an epoch-stamped overlay; every
// other node reads through to the base, broadcast to all lanes.
//
// Imply is the serial two-pass schedule on planes: the backward
// closure (outputs to inputs) runs first, lanes that conflict there are
// masked off, then the forward closure (inputs to outputs) runs.
// ImplyFixpoint repeats that round, as Frame.ImplyFixpoint does. Both
// closures apply the same rules as Frame.inferGate and
// Frame.evalGateForward, bitwise per lane, with the same fault
// semantics: a stem-stuck node's driver is never evaluated or inferred
// through, and a stuck branch pin reads the stuck value.
//
// Exactness: each closure is the least fixpoint of monotone rules
// (a rule that fires keeps firing as values are added), so the
// derived values and the conflict verdict of a lane do not depend on
// the order gates are visited, and a lane's result equals the serial
// frame's on the same assertion. A gate is evaluated only when a
// lane-divergent value reaches it; lanes whose inputs still carry the
// base derive nothing there, because the base is forward-consistent
// (produced by three-valued simulation of the faulty machine) and
// therefore also closed under the backward rules.

import (
	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// MaxLanes is the number of assertions one LaneFrame pass carries.
const MaxLanes = cir.Lanes4

// LaneFrame is the lane implication kernel: scratch for one goroutine
// running lane passes over frames of one compiled circuit. It is not
// safe for concurrent use; create one per worker.
//
// A pass runs as Begin, AssertNextState on each lane, one Imply or
// ImplyFixpoint, and then reads of Conflicts, Value, Output, NextState
// and PresentState. Values are exact on the pass's lanes that did not
// conflict; the others hold unspecified values.
type LaneFrame struct {
	cc *cir.CC
	// pos is cc.Positions(): gate records and fanin by position in
	// cc.Order, so a gate's fanin drivers sit at lower and its readers
	// at higher positions.
	pos *cir.Positions

	// ov holds the node stamps, the touched list (the live nodes in
	// store order) and the schedule over positions; vals[n] is node n's
	// value while ov marks n live.
	ov   cir.Overlay
	vals []cir.VV4
	// base is the frame every lane starts from, aliased and never
	// written.
	base []logic.Val

	// nw is the number of live lane words; active masks the pass's
	// lanes and conf the lanes that have conflicted. gained records
	// that some lane gained a value in the current round.
	nw     int
	active [4]uint64
	conf   [4]uint64
	gained bool

	// The bound fault: stem is the stem fault node (stemVal its stuck
	// value), branch/pin the branch fault gate's position (-1: none) and
	// input pin, stuck the stuck value broadcast to every lane.
	stem    netlist.NodeID
	stemVal logic.Val
	branch  int
	pin     int32
	stuck   cir.VV4

	evals int
}

// NewLaneFrame returns a lane implication kernel sized for cc.
func NewLaneFrame(cc *cir.CC) *LaneFrame {
	return &LaneFrame{
		cc:   cc,
		pos:  cc.Positions(),
		ov:   cc.NewOverlay(),
		vals: make([]cir.VV4, cc.NumNodes()),
	}
}

// Begin starts a pass of lanes assertions (1 to MaxLanes) on the base
// frame base of the machine with fault f (nil for the fault-free
// machine). base is aliased, not copied, and must be the frame's
// three-valued simulation under f.
func (lf *LaneFrame) Begin(f *fault.Fault, base []logic.Val, lanes int) {
	if f == nil {
		f = &cir.NoFault
	}
	lf.base = base
	lf.nw = (lanes + 63) >> 6
	lf.active, lf.conf = [4]uint64{}, [4]uint64{}
	for w := 0; w < lf.nw; w++ {
		lf.active[w] = ^uint64(0)
	}
	if r := lanes & 63; r != 0 {
		lf.active[lf.nw-1] = 1<<r - 1
	}
	lf.evals = 0
	lf.ov.Begin()
	lf.stem, lf.stemVal, lf.branch, lf.pin = netlist.NoNode, logic.X, -1, 0
	if f.Node != netlist.NoNode {
		if f.IsStem() {
			lf.stem, lf.stemVal = f.Node, f.Stuck
		} else {
			lf.branch, lf.pin = int(lf.cc.OrderPos[f.Gate]), f.Pin
		}
	}
	lf.stuck = cir.Broadcast4(f.Stuck)
}

// AssertNextState asserts on lane that flip-flop i latches v at the end
// of the frame, as Frame.AssignNextState does for a serial frame. It
// returns false when the assertion conflicts outright (the lane is then
// marked conflicted).
func (lf *LaneFrame) AssertNextState(i, lane int, v logic.Val) bool {
	w, bit := lane>>6, uint64(1)<<(lane&63)
	if q := lf.cc.FFQ[i]; q == lf.stem {
		// The latched value is unobservable: the assertion constrains
		// nothing unless it contradicts the stuck value.
		if v != lf.stemVal {
			lf.conf[w] |= bit
			return false
		}
		return true
	}
	x := lf.load(lf.cc.FFD[i])
	if v == logic.One {
		x.One[w] |= bit
	} else {
		x.Zero[w] |= bit
	}
	if x.One[w]&x.Zero[w]&bit != 0 {
		lf.conf[w] |= bit
		return false
	}
	return true
}

// Imply runs the backward closure and then, on the lanes that did not
// conflict, the forward closure, and returns the number of gates
// evaluated in lanes. It is ImplyFixpoint(1), the lane counterpart of
// Frame.ImplyTwoPass.
func (lf *LaneFrame) Imply() int { return lf.ImplyFixpoint(1) }

// ImplyFixpoint alternates the backward and forward closures until no
// lane gains a value in a round or maxRounds rounds have run, and
// returns the number of gates evaluated in lanes. Each round re-seeds
// from every node the pass has stored. A closure of a closed lane
// derives nothing, so a lane that settles before the others is left
// unchanged by their later rounds, and each lane equals
// Frame.ImplyFixpoint(maxRounds) on its assertion.
func (lf *LaneFrame) ImplyFixpoint(maxRounds int) int {
	for round := 0; round < maxRounds; round++ {
		lf.gained = false
		// Backward: always take the highest pending position. Inference
		// schedules fanin drivers below and sibling readers above the
		// gate, so positions are revisited until nothing is pending.
		for _, n := range lf.ov.Touched() {
			lf.pushDriver(n)
			lf.pushReaders(n)
		}
		for p := lf.ov.Last(); p >= 0; p = lf.ov.Last() {
			lf.infer(p)
		}

		live := uint64(0)
		for w := 0; w < lf.nw; w++ {
			live |= lf.active[w] &^ lf.conf[w]
		}
		if live == 0 {
			break
		}
		// Forward from every node the closures (or the assertions)
		// changed; readers sit at higher positions, so one ascending
		// scan reaches quiescence.
		for _, n := range lf.ov.Touched() {
			lf.pushReaders(n)
		}
		for p := lf.ov.Next(); p >= 0; p = lf.ov.Next() {
			lf.eval(p)
		}
		if !lf.gained {
			break
		}
	}
	return lf.evals
}

// Conflicts returns the mask of the pass's lanes that conflicted.
func (lf *LaneFrame) Conflicts() [4]uint64 {
	var c [4]uint64
	for w := 0; w < lf.nw; w++ {
		c[w] = lf.conf[w] & lf.active[w]
	}
	return c
}

// Value returns node n's lane values: the overlay if the node diverged
// from the base, else the base broadcast. The result is read-only.
func (lf *LaneFrame) Value(n netlist.NodeID) *cir.VV4 {
	if lf.ov.Live(n) {
		return &lf.vals[n]
	}
	return cir.LaneBroadcast(lf.base[n])
}

// Touched lists the nodes the pass stored in its overlay, in store
// order: every node whose value diverges from the base on some lane,
// plus nodes loaded without a change. The slice is read-only and valid
// until the next Begin.
func (lf *LaneFrame) Touched() []netlist.NodeID { return lf.ov.Touched() }

// PresentState returns the lane values of flip-flop i's Q node in the
// frame (Frame.PresentState).
func (lf *LaneFrame) PresentState(i int) *cir.VV4 { return lf.Value(lf.cc.FFQ[i]) }

// Output returns the lane values of primary output j.
func (lf *LaneFrame) Output(j int) *cir.VV4 { return lf.Value(lf.cc.Outputs[j]) }

// NextState returns the lane values latched by flip-flop i: its D node,
// observed through any stem fault on its Q node (Frame.NextState).
func (lf *LaneFrame) NextState(i int) *cir.VV4 {
	if lf.cc.FFQ[i] == lf.stem {
		return cir.LaneBroadcast(lf.stemVal)
	}
	return lf.Value(lf.cc.FFD[i])
}

// load returns node n's overlay entry, stamping it from the base on
// first use in the pass.
func (lf *LaneFrame) load(n netlist.NodeID) *cir.VV4 {
	v := &lf.vals[n]
	if lf.ov.Mark(n) {
		*v = *cir.LaneBroadcast(lf.base[n])
	}
	return v
}

// push schedules the gate at position p unless its output is binary in
// the base. Such a gate derives nothing in either closure: the base is
// forward-consistent, so inputs refining the base still evaluate to the
// base output, and a binary base output is already justified by the
// base inputs (a controlling input, or all inputs binary), so the
// backward rules force no input. This also skips the driver of a
// stuck stem, which holds its binary stuck value.
func (lf *LaneFrame) push(p int32) {
	if lf.base[lf.pos.Gates[p].Out] == logic.X {
		lf.ov.Push(p)
	}
}

// pushDriver schedules the gate driving node n, if any.
func (lf *LaneFrame) pushDriver(n netlist.NodeID) {
	if d := lf.cc.Driver[n]; d != netlist.NoGate {
		lf.push(lf.cc.OrderPos[d])
	}
}

// pushReaders schedules every gate reading node n.
func (lf *LaneFrame) pushReaders(n netlist.NodeID) {
	for _, p := range lf.ov.Readers(n) {
		lf.push(p)
	}
}

// seen returns the lane values pin k of the gate at position p reads
// from node n.
func (lf *LaneFrame) seen(p int, k int32, n netlist.NodeID) *cir.VV4 {
	if p == lf.branch && k == lf.pin {
		return &lf.stuck
	}
	return lf.Value(n)
}

// add merges the lane values (one, zero) into node n, marking lanes
// that now hold both values as conflicted, and reports whether any
// lane changed.
func (lf *LaneFrame) add(n netlist.NodeID, one, zero *[4]uint64) bool {
	v := lf.load(n)
	changed := uint64(0)
	for w := 0; w < lf.nw; w++ {
		d := one[w]&^v.One[w] | zero[w]&^v.Zero[w]
		v.One[w] |= one[w]
		v.Zero[w] |= zero[w]
		lf.conf[w] |= v.One[w] & v.Zero[w] & d
		changed |= d
	}
	if changed == 0 {
		return false
	}
	lf.gained = true
	return true
}

// force merges inferred input values (one, zero) into node n and
// schedules the backward rules the change enables: n's driver (its
// output became binary) and every other reader whose output is binary
// on a changed lane. from is the position of the gate that inferred
// them.
func (lf *LaneFrame) force(n netlist.NodeID, one, zero *[4]uint64, from int) {
	if !lf.add(n, one, zero) {
		return
	}
	lf.pushDriver(n)
	for _, p := range lf.ov.Readers(n) {
		if int(p) == from {
			continue
		}
		o := lf.Value(lf.pos.Gates[p].Out)
		hit := uint64(0)
		for w := 0; w < lf.nw; w++ {
			hit |= (o.One[w] | o.Zero[w]) & (one[w] | zero[w])
		}
		if hit != 0 {
			lf.push(p)
		}
	}
}

// infer applies the backward rules of logic.InferInputsInto at the gate
// at position p on every live lane whose output is binary: a non-controlled output
// forces every X input non-controlling; a controlled output with no
// controlling input and exactly one X input forces that input; a parity
// gate (XOR, XNOR, BUF, NOT) with exactly one X input forces it. A gate
// whose inputs contradict its output conflicts the lane.
func (lf *LaneFrame) infer(p int) {
	r, fanin := &lf.pos.Gates[p], lf.pos.Fanin
	lf.evals++
	nw := lf.nw
	o := lf.Value(r.Out)
	var o1, o0 [4]uint64
	bin := uint64(0)
	for w := 0; w < nw; w++ {
		live := lf.active[w] &^ lf.conf[w]
		o1[w] = o.One[w] &^ o.Zero[w] & live
		o0[w] = o.Zero[w] &^ o.One[w] & live
		bin |= o1[w] | o0[w]
	}
	if bin == 0 {
		return
	}
	lo, hi := r.Lo, r.Hi
	// x1/x2: lanes with at least one / at least two X inputs.
	var x1, x2, f1, f0 [4]uint64
	force := uint64(0)
	switch op := r.Op; op {
	case logic.And, logic.Nand, logic.Or, logic.Nor:
		// c1: the controlling value is 1 (OR family); anyC: lanes with
		// a controlling input.
		c1 := op == logic.Or || op == logic.Nor
		var anyC [4]uint64
		for k := lo; k < hi; k++ {
			in := lf.seen(p, k-lo, fanin[k])
			cp := &in.Zero
			if c1 {
				cp = &in.One
			}
			for w := 0; w < nw; w++ {
				x := ^(in.One[w] | in.Zero[w])
				x2[w] |= x1[w] & x
				x1[w] |= x
				anyC[w] |= cp[w]
			}
		}
		// The controlled output value is 1 for NAND and OR.
		oc, onc := &o0, &o1
		if op == logic.Nand || op == logic.Or {
			oc, onc = &o1, &o0
		}
		// fnc: lanes forcing X inputs non-controlling; fc: lanes forcing
		// the single X input controlling.
		var fnc, fc [4]uint64
		for w := 0; w < nw; w++ {
			lf.conf[w] |= onc[w]&anyC[w] | oc[w]&^anyC[w]&^x1[w]
			fnc[w] = onc[w] &^ anyC[w] & x1[w]
			fc[w] = oc[w] &^ anyC[w] & x1[w] &^ x2[w]
			force |= fnc[w] | fc[w]
		}
		if c1 {
			f1, f0 = fc, fnc
		} else {
			f1, f0 = fnc, fc
		}
	case logic.Xor, logic.Xnor, logic.Buf, logic.Not:
		inv := uint64(0)
		if op == logic.Xnor || op == logic.Not {
			inv = ^uint64(0)
		}
		var par [4]uint64
		for k := lo; k < hi; k++ {
			in := lf.seen(p, k-lo, fanin[k])
			for w := 0; w < nw; w++ {
				x := ^(in.One[w] | in.Zero[w])
				x2[w] |= x1[w] & x
				x1[w] |= x
				par[w] ^= in.One[w]
			}
		}
		for w := 0; w < nw; w++ {
			// q: the output the known inputs produce with the X input at
			// 0; the X input must be 1 exactly where that misses.
			q := par[w] ^ inv
			miss := o1[w]&^q | o0[w]&q
			lf.conf[w] |= miss &^ x1[w]
			m := x1[w] &^ x2[w]
			f1[w] = m & miss
			f0[w] = m & (o1[w] | o0[w]) &^ miss
			force |= f1[w] | f0[w]
		}
	default:
		// Constants have no inputs to infer.
		return
	}
	if force == 0 {
		return
	}
	for k := lo; k < hi; k++ {
		n := fanin[k]
		in := lf.seen(p, k-lo, n)
		var one, zero [4]uint64
		hit := uint64(0)
		for w := 0; w < nw; w++ {
			x := ^(in.One[w] | in.Zero[w])
			one[w] = f1[w] & x
			zero[w] = f0[w] & x
			hit |= one[w] | zero[w]
		}
		if hit != 0 {
			lf.force(n, &one, &zero, p)
		}
	}
}

// eval applies forward evaluation at the gate at position p on every
// live lane, merging the output and scheduling its readers when a lane
// changed.
func (lf *LaneFrame) eval(p int) {
	const allBits = ^uint64(0)
	r, fanin := &lf.pos.Gates[p], lf.pos.Fanin
	lf.evals++
	nw := lf.nw
	out := r.Out
	o := lf.Value(out)
	lo, hi := r.Lo, r.Hi
	var one, zero [4]uint64
	op := r.Op
	switch op {
	case logic.And, logic.Nand:
		for w := 0; w < nw; w++ {
			one[w] = allBits
		}
		for k := lo; k < hi; k++ {
			in := lf.seen(p, k-lo, fanin[k])
			for w := 0; w < nw; w++ {
				one[w] &= in.One[w]
				zero[w] |= in.Zero[w]
			}
		}
	case logic.Xor, logic.Xnor:
		for w := 0; w < nw; w++ {
			zero[w] = allBits
		}
		for k := lo; k < hi; k++ {
			in := lf.seen(p, k-lo, fanin[k])
			for w := 0; w < nw; w++ {
				t := one[w]&in.Zero[w] | zero[w]&in.One[w]
				zero[w] = one[w]&in.One[w] | zero[w]&in.Zero[w]
				one[w] = t
			}
		}
	default: // Or, Nor, Buf, Not: the or-fold
		// (Constants have no fanin, so nothing schedules them.)
		for w := 0; w < nw; w++ {
			zero[w] = allBits
		}
		for k := lo; k < hi; k++ {
			in := lf.seen(p, k-lo, fanin[k])
			for w := 0; w < nw; w++ {
				one[w] |= in.One[w]
				zero[w] &= in.Zero[w]
			}
		}
	}
	po, pz := &one, &zero
	if op.Inverting() {
		po, pz = &zero, &one
	}
	hit := uint64(0)
	for w := 0; w < nw; w++ {
		live := lf.active[w] &^ lf.conf[w]
		po[w] &= live &^ o.One[w]
		pz[w] &= live &^ o.Zero[w]
		hit |= po[w] | pz[w]
	}
	if hit == 0 || !lf.add(out, po, pz) {
		return
	}
	lf.pushReaders(out)
}
