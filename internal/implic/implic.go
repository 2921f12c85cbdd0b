// Package implic implements the single-time-frame implication engine that
// powers backward implications (Section 2 of the paper): given the partial
// value assignment of one time frame and an additional asserted value
// (typically a next-state variable set by state expansion at the following
// time unit), it derives further values by sweeping the combinational
// logic backward (outputs to inputs) and forward (inputs to outputs),
// detecting conflicts along the way.
//
// Following the paper's implementation, implications inside a frame use
// exactly two passes — one from outputs to inputs and one from inputs to
// outputs — to keep computation time low. An event-driven fixpoint
// schedule is available as an extension.
//
// All structural walks run on the compiled circuit IR (internal/cir);
// forward gate semantics are cir.EvalOp and backward inference is
// logic.InferInputsInto.
package implic

import (
	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Frame is the mutable value assignment of one time frame of a (possibly
// faulty) machine. Values are "effective": a stem-stuck node permanently
// holds its stuck value, and branch faults are applied when gate pins read
// their inputs.
//
// The frame keeps an assignment trail, SAT-solver style: every value write
// is logged in order, and Mark/UndoTo restore a previous state touching
// only the logged nodes. Under three-valued merging the only possible
// transition is X -> binary (Merge never flips a binary value), so the
// trail needs no explicit old values — undoing a write always restores X.
// The same log seeds the event-driven sweeps.
type Frame struct {
	cc   *cir.CC
	flt  *fault.Fault
	vals []logic.Val

	conflict     bool
	conflictNode netlist.NodeID

	inBuf     []logic.Val
	forcedBuf []logic.Val

	// changed is the assignment trail: nodes whose value became binary
	// since New, in write order.
	changed []netlist.NodeID
	// inQ marks gates already enqueued in the active worklist.
	inQ   []bool
	queue []netlist.GateID
}

// New creates a frame from a base assignment (one value per node, as
// produced by seqsim.EvalFrame with the same fault). The base is copied.
// flt may be nil for a fault-free frame. The compiled IR is obtained from
// the process-wide cache (cir.For).
func New(c *netlist.Circuit, flt *fault.Fault, base []logic.Val) *Frame {
	return NewCompiled(cir.For(c), flt, base)
}

// NewCompiled is New on an already-compiled circuit, sharing cc read-only
// with any other evaluator.
func NewCompiled(cc *cir.CC, flt *fault.Fault, base []logic.Val) *Frame {
	if flt == nil {
		flt = &cir.NoFault
	}
	vals := make([]logic.Val, len(base))
	copy(vals, base)
	n := cc.MaxFanin
	if n < 1 {
		n = 1
	}
	return &Frame{
		cc: cc, flt: flt, vals: vals,
		conflictNode: netlist.NoNode,
		inBuf:        make([]logic.Val, n),
		forcedBuf:    make([]logic.Val, n),
		inQ:          make([]bool, cc.NumGates()),
	}
}

// clearWorklist empties the gate worklist, unsetting only the inQ flags of
// gates still enqueued.
func (fr *Frame) clearWorklist() {
	for _, g := range fr.queue {
		fr.inQ[g] = false
	}
	fr.queue = fr.queue[:0]
}

// Mark returns the current trail position. Passing it to UndoTo rolls the
// frame back to this exact state.
func (fr *Frame) Mark() int { return len(fr.changed) }

// UndoTo rolls back every assignment made since mark was obtained from
// Mark, restoring the affected nodes to X, and clears any conflict, in
// O(assignments undone). The worklist is always empty between sweeps
// (closures drain it on success and clear it sparsely on conflict), so a
// frame can run assign -> imply -> inspect -> UndoTo repeatedly from one
// base assignment without any per-round O(nodes) or O(gates) work.
func (fr *Frame) UndoTo(mark int) {
	for _, n := range fr.changed[mark:] {
		fr.vals[n] = logic.X
	}
	fr.changed = fr.changed[:mark]
	fr.conflict = false
	fr.conflictNode = netlist.NoNode
	fr.clearWorklist()
}

// Value returns the current effective value of node n.
func (fr *Frame) Value(n netlist.NodeID) logic.Val { return fr.vals[n] }

// Values returns the underlying value slice (read-only by convention).
func (fr *Frame) Values() []logic.Val { return fr.vals }

// Conflict reports whether any assignment or sweep found a contradiction.
func (fr *Frame) Conflict() bool { return fr.conflict }

// ConflictNode returns the node at which the first conflict was observed,
// or netlist.NoNode.
func (fr *Frame) ConflictNode() netlist.NodeID { return fr.conflictNode }

// fail records the first conflict.
func (fr *Frame) fail(n netlist.NodeID) {
	if !fr.conflict {
		fr.conflict = true
		fr.conflictNode = n
	}
}

// Assign merges value v into node n, returning false on conflict. A
// binary assignment to a stem-stuck node conflicts unless it equals the
// stuck value.
func (fr *Frame) Assign(n netlist.NodeID, v logic.Val) bool {
	if fr.conflict {
		return false
	}
	merged, conflict := logic.Merge(fr.vals[n], v)
	if conflict {
		fr.fail(n)
		return false
	}
	if merged != fr.vals[n] {
		fr.vals[n] = merged
		fr.changed = append(fr.changed, n)
	}
	return true
}

// seenInputs fills fr.inBuf with the values gate gi's pins observe; lo/hi
// are the gate's CSR fanin bounds.
func (fr *Frame) seenInputs(gi netlist.GateID, lo, hi int32) []logic.Val {
	in := fr.inBuf[:hi-lo]
	for k := lo; k < hi; k++ {
		id := fr.cc.Fanin[k]
		in[k-lo] = fr.flt.SeenBy(gi, k-lo, id, fr.vals[id])
	}
	return in
}

// inferGate applies the backward inference rules at gate gi, assigning
// any forced input values. It returns false on conflict.
func (fr *Frame) inferGate(gi netlist.GateID) bool {
	cc := fr.cc
	gout := cc.GOut[gi]
	if _, stuck := fr.flt.StuckNode(gout); stuck {
		// The driver of a stuck stem is unobservable: the demanded value
		// on the stem says nothing about the driver's inputs.
		return true
	}
	out := fr.vals[gout]
	if out == logic.X {
		return true
	}
	lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
	in := fr.seenInputs(gi, lo, hi)
	forced := fr.forcedBuf[:len(in)]
	if !logic.InferInputsInto(cc.Ops[gi], out, in, forced) {
		fr.fail(gout)
		return false
	}
	for pi, fv := range forced {
		if fv == logic.X {
			continue
		}
		id := cc.Fanin[lo+int32(pi)]
		if fr.flt.Node == id && !fr.flt.IsStem() && fr.flt.Gate == gi && fr.flt.Pin == int32(pi) {
			// The pin is stuck: a demanded value different from the stuck
			// value can never be seen.
			if fv != fr.flt.Stuck {
				fr.fail(id)
				return false
			}
			continue
		}
		if !fr.Assign(id, fv) {
			return false
		}
	}
	return true
}

// evalGateForward evaluates gate gi and merges its output value,
// returning false on conflict.
func (fr *Frame) evalGateForward(gi netlist.GateID) bool {
	cc := fr.cc
	gout := cc.GOut[gi]
	if _, stuck := fr.flt.StuckNode(gout); stuck {
		return true
	}
	v := cir.EvalOp(cc.Ops[gi], fr.seenInputs(gi, cc.FaninStart[gi], cc.FaninStart[gi+1]))
	if v == logic.X {
		return true
	}
	return fr.Assign(gout, v)
}

// BackwardSweep performs one dense pass over every gate from outputs to
// inputs (descending level order), applying the backward inference rules.
// It is the reference implementation of the paper's outputs-to-inputs
// pass; ImplyTwoPass uses the equivalent event-driven closure instead.
func (fr *Frame) BackwardSweep() bool {
	if fr.conflict {
		return false
	}
	order := fr.cc.Order
	for k := len(order) - 1; k >= 0; k-- {
		if !fr.inferGate(order[k]) {
			return false
		}
	}
	return true
}

// ForwardSweep performs one dense pass over every gate from inputs to
// outputs (ascending level order), evaluating each gate and merging its
// output value. It is the reference implementation of the paper's
// inputs-to-outputs pass.
func (fr *Frame) ForwardSweep() bool {
	if fr.conflict {
		return false
	}
	for _, gi := range fr.cc.Order {
		if !fr.evalGateForward(gi) {
			return false
		}
	}
	return true
}

// enq adds a gate to the active worklist once.
func (fr *Frame) enq(g netlist.GateID) {
	if !fr.inQ[g] {
		fr.inQ[g] = true
		fr.queue = append(fr.queue, g)
	}
}

// backwardClosure computes the closure of the backward inference rules
// over the changes logged since cursor: every gate whose output is newly
// binary, or whose output is binary and gained a newly binary input, is
// (re)processed until quiescence. The result contains every value a dense
// backward sweep derives (and possibly more, since the closure does not
// stop after a single pass).
//
// The drain loop is written out rather than shared through function values
// with forwardClosure: closures capturing fr would escape and allocate on
// every imply call, which pooled frames exist to avoid.
func (fr *Frame) backwardClosure(cursor *int) bool {
	if fr.conflict {
		return false
	}
	cc := fr.cc
	for {
		for ; *cursor < len(fr.changed); *cursor++ {
			n := fr.changed[*cursor]
			if d := cc.Driver[n]; d != netlist.NoGate {
				fr.enq(d)
			}
			for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
				g := cc.FanoutGate[k]
				if fr.vals[cc.GOut[g]].IsBinary() {
					fr.enq(g)
				}
			}
		}
		if len(fr.queue) == 0 {
			return true
		}
		g := fr.queue[len(fr.queue)-1]
		fr.queue = fr.queue[:len(fr.queue)-1]
		fr.inQ[g] = false
		if !fr.inferGate(g) {
			fr.clearWorklist()
			return false
		}
	}
}

// forwardClosure computes the closure of forward evaluation over the
// changes logged since cursor: every gate reading a newly binary node is
// re-evaluated, cascading until quiescence.
func (fr *Frame) forwardClosure(cursor *int) bool {
	if fr.conflict {
		return false
	}
	cc := fr.cc
	for {
		for ; *cursor < len(fr.changed); *cursor++ {
			n := fr.changed[*cursor]
			for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
				fr.enq(cc.FanoutGate[k])
			}
		}
		if len(fr.queue) == 0 {
			return true
		}
		g := fr.queue[len(fr.queue)-1]
		fr.queue = fr.queue[:len(fr.queue)-1]
		fr.inQ[g] = false
		if !fr.evalGateForward(g) {
			fr.clearWorklist()
			return false
		}
	}
}

// ImplyTwoPass runs the paper's implication schedule — implications from
// outputs to inputs, then from inputs to outputs — as two event-driven
// closures over the cone of the asserted values. It derives a superset of
// the values of the paper's dense two-sweep schedule at a cost
// proportional to the affected cone rather than the whole circuit, and
// returns false on conflict.
func (fr *Frame) ImplyTwoPass() bool {
	back, fwd := 0, 0
	return fr.backwardClosure(&back) && fr.forwardClosure(&fwd)
}

// ImplyFixpoint alternates backward and forward closures until no value
// changes or maxRounds round-trips have run (extension over the paper's
// two-pass schedule). It returns false on conflict.
func (fr *Frame) ImplyFixpoint(maxRounds int) bool {
	back, fwd := 0, 0
	for round := 0; round < maxRounds; round++ {
		before := len(fr.changed)
		if !fr.backwardClosure(&back) || !fr.forwardClosure(&fwd) {
			return false
		}
		if len(fr.changed) == before {
			return true
		}
	}
	return !fr.conflict
}

// Output returns the observed value of primary output j.
func (fr *Frame) Output(j int) logic.Val {
	return fr.vals[fr.cc.Outputs[j]]
}

// NextState returns the effective value latched by flip-flop i: the value
// of its D node, observed through any stem fault on its Q node.
func (fr *Frame) NextState(i int) logic.Val {
	return fr.flt.Observed(fr.cc.FFQ[i], fr.vals[fr.cc.FFD[i]])
}

// PresentState returns the effective value of flip-flop i's Q node in this
// frame.
func (fr *Frame) PresentState(i int) logic.Val {
	return fr.vals[fr.cc.FFQ[i]]
}

// AssignNextState asserts that flip-flop i latches value v at the end of
// this frame — the backward-implication entry point: setting present-state
// variable y_i = v at time u+1 sets next-state variable Y_i = v here.
// Asserting against a stem fault on the Q node conflicts unless v equals
// the stuck value (the latched value is unobservable then, so the
// assertion constrains nothing).
func (fr *Frame) AssignNextState(i int, v logic.Val) bool {
	q := fr.cc.FFQ[i]
	if sv, stuck := fr.flt.StuckNode(q); stuck {
		if v.IsBinary() && v != sv {
			fr.fail(q)
			return false
		}
		return true
	}
	return fr.Assign(fr.cc.FFD[i], v)
}
