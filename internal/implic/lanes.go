package implic

// Lane-parallel implications: the bit-parallel counterpart of
// Frame.ImplyTwoPass for pair collection (Section 3.1).
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
// The pass is the serial two-pass schedule on planes: the backward
// closure (outputs to inputs) runs first, lanes that conflict there are
// masked off, then the forward closure (inputs to outputs) runs. Both
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
	"math/bits"

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
// A pass runs as Begin, one AssertNextState per lane, one Imply, and
// then reads of Conflicts, Value, Output and NextState. Values are exact
// on the pass's lanes that did not conflict; the others hold
// unspecified values.
type LaneFrame struct {
	cc *cir.CC
	// gates packs each gate's closure metadata into one record.
	gates []laneGate

	// vals/stamp are the overlay: vals[n] is live iff stamp[n] == epoch.
	// touched lists the live nodes in store order.
	vals    []cir.VV4
	stamp   []uint32
	epoch   uint32
	touched []netlist.NodeID
	// base is the frame every lane starts from, aliased and never
	// written.
	base []logic.Val

	// nw is the number of live lane words; active masks the pass's
	// lanes and conf the lanes that have conflicted.
	nw     int
	active [4]uint64
	conf   [4]uint64

	// pending is the schedule bitmap, all-zero outside the closures;
	// every set bit lies in words [lo, hi].
	pending []uint64
	lo, hi  int

	// The bound fault: stem is the stem fault node (stemVal its stuck
	// value), branch/pin the branch fault's gate and input position,
	// stuck the stuck value broadcast to every lane.
	stem    netlist.NodeID
	stemVal logic.Val
	branch  netlist.GateID
	pin     int32
	stuck   cir.VV4

	evals int
}

// laneGate is one gate's record: output node, CSR fanin bounds,
// operator, and position in cc.Order. The schedule is a bitmap over
// those positions, so a gate's fanin drivers sit at lower and its
// readers at higher positions.
type laneGate struct {
	out    netlist.NodeID
	lo, hi int32
	pos    int32
	op     logic.Op
}

// NewLaneFrame returns a lane implication kernel sized for cc.
func NewLaneFrame(cc *cir.CC) *LaneFrame {
	gates := make([]laneGate, cc.NumGates())
	for p, g := range cc.Order {
		gates[g] = laneGate{out: cc.GOut[g], lo: cc.FaninStart[g], hi: cc.FaninStart[g+1], pos: int32(p), op: cc.Ops[g]}
	}
	return &LaneFrame{
		cc:      cc,
		gates:   gates,
		vals:    make([]cir.VV4, cc.NumNodes()),
		stamp:   make([]uint32, cc.NumNodes()),
		pending: make([]uint64, (cc.NumGates()+63)>>6),
		lo:      (cc.NumGates() + 63) >> 6,
		hi:      -1,
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
	lf.touched = lf.touched[:0]
	lf.evals = 0
	lf.epoch++
	if lf.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch.
		clear(lf.stamp)
		lf.epoch = 1
	}
	lf.stem, lf.stemVal, lf.branch, lf.pin = netlist.NoNode, logic.X, netlist.NoGate, 0
	if f.Node != netlist.NoNode {
		if f.IsStem() {
			lf.stem, lf.stemVal = f.Node, f.Stuck
		} else {
			lf.branch, lf.pin = f.Gate, f.Pin
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
// evaluated in lanes.
func (lf *LaneFrame) Imply() int {
	cc := lf.cc
	// Seed the backward closure from the asserted next-state nodes.
	for _, n := range lf.touched {
		if d := cc.Driver[n]; d != netlist.NoGate {
			lf.push(d)
		}
		for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
			lf.push(cc.FanoutGate[k])
		}
	}
	// Backward: always take the highest pending position. Inference
	// schedules fanin drivers below and sibling readers above the gate,
	// so positions are revisited until nothing is pending.
	for lf.hi >= 0 {
		w := lf.hi
		pw := lf.pending[w]
		if pw == 0 {
			lf.hi--
			continue
		}
		bit := 63 - bits.LeadingZeros64(pw)
		lf.pending[w] = pw &^ (1 << bit)
		lf.infer(cc.Order[w<<6|bit])
	}
	lf.lo = len(lf.pending)

	live := uint64(0)
	for w := 0; w < lf.nw; w++ {
		live |= lf.active[w] &^ lf.conf[w]
	}
	if live != 0 {
		// Forward from every node the backward closure (or the
		// assertions) changed; readers sit at higher positions, so one
		// ascending scan reaches quiescence.
		for _, n := range lf.touched {
			for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
				lf.push(cc.FanoutGate[k])
			}
		}
		for lf.lo < len(lf.pending) {
			w := lf.lo
			pw := lf.pending[w]
			if pw == 0 {
				lf.lo++
				continue
			}
			bit := bits.TrailingZeros64(pw)
			lf.pending[w] = pw &^ (1 << bit)
			lf.eval(cc.Order[w<<6|bit])
		}
	}
	lf.hi = -1
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
	if lf.stamp[n] == lf.epoch {
		return &lf.vals[n]
	}
	return cir.LaneBroadcast(lf.base[n])
}

// Touched lists the nodes the pass stored in its overlay, in store
// order: every node whose value diverges from the base on some lane,
// plus nodes loaded without a change. The slice is read-only and valid
// until the next Begin.
func (lf *LaneFrame) Touched() []netlist.NodeID { return lf.touched }

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
	if lf.stamp[n] != lf.epoch {
		lf.stamp[n] = lf.epoch
		b := cir.LaneBroadcast(lf.base[n])
		for w := 0; w < lf.nw; w++ {
			v.One[w], v.Zero[w] = b.One[w], b.Zero[w]
		}
		lf.touched = append(lf.touched, n)
	}
	return v
}

// push schedules gate g unless its output is binary in the base. Such
// a gate derives nothing in either closure: the base is
// forward-consistent, so inputs refining the base still evaluate to the
// base output, and a binary base output is already justified by the
// base inputs (a controlling input, or all inputs binary), so the
// backward rules force no input. This also skips the driver of a
// stuck stem, which holds its binary stuck value.
func (lf *LaneFrame) push(g netlist.GateID) {
	r := &lf.gates[g]
	if lf.base[r.out] != logic.X {
		return
	}
	p := r.pos
	w := int(p >> 6)
	lf.pending[w] |= 1 << (p & 63)
	if w > lf.hi {
		lf.hi = w
	}
	if w < lf.lo {
		lf.lo = w
	}
}

// seen returns the lane values pin k of gate g reads from node n.
func (lf *LaneFrame) seen(g netlist.GateID, k int32, n netlist.NodeID) *cir.VV4 {
	if g == lf.branch && k == lf.pin {
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
	return changed != 0
}

// force merges inferred input values (one, zero) into node n and
// schedules the backward rules the change enables: n's driver (its
// output became binary) and every other reader whose output is binary
// on a changed lane.
func (lf *LaneFrame) force(n netlist.NodeID, one, zero *[4]uint64, from netlist.GateID) {
	if !lf.add(n, one, zero) {
		return
	}
	cc := lf.cc
	if d := cc.Driver[n]; d != netlist.NoGate {
		lf.push(d)
	}
	for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
		g := cc.FanoutGate[k]
		if g == from {
			continue
		}
		o := lf.Value(lf.gates[g].out)
		hit := uint64(0)
		for w := 0; w < lf.nw; w++ {
			hit |= (o.One[w] | o.Zero[w]) & (one[w] | zero[w])
		}
		if hit != 0 {
			lf.push(g)
		}
	}
}

// infer applies the backward rules of logic.InferInputsInto at gate g
// on every live lane whose output is binary: a non-controlled output
// forces every X input non-controlling; a controlled output with no
// controlling input and exactly one X input forces that input; a parity
// gate (XOR, XNOR, BUF, NOT) with exactly one X input forces it. A gate
// whose inputs contradict its output conflicts the lane.
func (lf *LaneFrame) infer(g netlist.GateID) {
	cc, r := lf.cc, &lf.gates[g]
	lf.evals++
	nw := lf.nw
	o := lf.Value(r.out)
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
	lo, hi := r.lo, r.hi
	// x1/x2: lanes with at least one / at least two X inputs.
	var x1, x2, f1, f0 [4]uint64
	force := uint64(0)
	switch op := r.op; op {
	case logic.And, logic.Nand, logic.Or, logic.Nor:
		// c1: the controlling value is 1 (OR family); anyC: lanes with
		// a controlling input.
		c1 := op == logic.Or || op == logic.Nor
		var anyC [4]uint64
		for k := lo; k < hi; k++ {
			in := lf.seen(g, k-lo, cc.Fanin[k])
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
			in := lf.seen(g, k-lo, cc.Fanin[k])
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
		n := cc.Fanin[k]
		in := lf.seen(g, k-lo, n)
		var one, zero [4]uint64
		hit := uint64(0)
		for w := 0; w < nw; w++ {
			x := ^(in.One[w] | in.Zero[w])
			one[w] = f1[w] & x
			zero[w] = f0[w] & x
			hit |= one[w] | zero[w]
		}
		if hit != 0 {
			lf.force(n, &one, &zero, g)
		}
	}
}

// eval applies forward evaluation at gate g on every live lane, merging
// the output and scheduling its readers when a lane changed.
func (lf *LaneFrame) eval(g netlist.GateID) {
	const allBits = ^uint64(0)
	cc, r := lf.cc, &lf.gates[g]
	lf.evals++
	nw := lf.nw
	out := r.out
	o := lf.Value(out)
	lo, hi := r.lo, r.hi
	var one, zero [4]uint64
	op := r.op
	switch op {
	case logic.And, logic.Nand:
		for w := 0; w < nw; w++ {
			one[w] = allBits
		}
		for k := lo; k < hi; k++ {
			in := lf.seen(g, k-lo, cc.Fanin[k])
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
			in := lf.seen(g, k-lo, cc.Fanin[k])
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
			in := lf.seen(g, k-lo, cc.Fanin[k])
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
	for k := cc.FanoutStart[out]; k < cc.FanoutStart[out+1]; k++ {
		lf.push(cc.FanoutGate[k])
	}
}
