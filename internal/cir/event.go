package cir

// Event-driven sparse-delta evaluation: a position schedule over the
// compiled fanout CSR plus an epoch-stamped sparse value overlay
// (Overlay). Instead of copying the whole fault-free frame and walking
// every gate in order, the event evaluator seeds the handful of nodes a
// frame actually perturbs (the fault site and the changed present-state
// lines), then visits only gates whose inputs changed. Values equal to
// the bound baseline are never stored: the overlay holds exactly the
// divergent nodes, stamped with a per-frame epoch so starting a new
// frame is O(1) instead of O(nodes).

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// EventEval is the event-driven sparse-delta frame evaluator: scratch
// for one goroutine evaluating frames of one compiled circuit against a
// caller-bound baseline. It is not safe for concurrent use; create one
// per worker (the CC behind it is shared).
//
// A frame runs as BeginFrame (bind baseline, bump epoch), any number of
// Set/Enqueue seeds, one Drain, then sparse Read / Touched /
// MaterializeInto consumption. Values diverging from the baseline live
// in delta[n], live while the overlay marks n; unmarked nodes read
// through to the baseline, so no per-frame copy or clear of the node
// arrays ever happens.
type EventEval struct {
	cc *CC
	// ov holds the node stamps, the touched list (every node whose
	// effective value differs from the baseline this frame, in write
	// order) and the schedule.
	ov Overlay

	// base is the fault-free frame the overlay diverges from, bound per
	// frame and never written.
	base []logic.Val
	// delta[n] is node n's value while ov marks n live.
	delta []logic.Val

	// in is the gather spill for the rare gate wider than the stack
	// buffer.
	in []logic.Val
}

// NewEventEval returns an event evaluator sized for the circuit.
func (cc *CC) NewEventEval() *EventEval {
	return &EventEval{
		cc:    cc,
		ov:    cc.NewOverlay(),
		delta: make([]logic.Val, cc.NumNodes()),
		in:    make([]logic.Val, cc.MaxFanin),
	}
}

// BeginFrame starts a new frame: the overlay empties (epoch bump, no
// clearing) and base becomes the read-through baseline. base is aliased,
// not copied — it must stay unchanged until the frame's reads are done.
func (e *EventEval) BeginFrame(base []logic.Val) {
	e.base = base
	e.ov.Begin()
}

// Read returns node id's effective value this frame: the overlay value
// if the node diverged, the baseline otherwise.
func (e *EventEval) Read(id netlist.NodeID) logic.Val {
	if e.ov.Live(id) {
		return e.delta[id]
	}
	return e.base[id]
}

// Set records node id's effective value. A value equal to the current
// effective value is a no-op; otherwise the overlay absorbs it and
// every reading gate is scheduled. Seeding and gate evaluation both
// funnel through here, so Touched ends up as exactly the divergent
// node set.
func (e *EventEval) Set(id netlist.NodeID, v logic.Val) {
	if v == e.Read(id) {
		return
	}
	e.ov.Mark(id)
	e.delta[id] = v
	e.ov.PushReaders(id)
}

// Enqueue schedules gate g for evaluation without a value change — the
// branch-fault seed, where the faulty pin's stem keeps its fault-free
// value but the reading gate must still be re-evaluated.
func (e *EventEval) Enqueue(g netlist.GateID) { e.ov.Push(e.cc.OrderPos[g]) }

// Drain evaluates every scheduled gate in ascending position order
// under fault f (non-nil; use &NoFault), feeding output changes back
// through Set, and returns the number of gates evaluated. A gate's
// readers sit at later positions, so every gate is evaluated once,
// after all of its writers.
func (e *EventEval) Drain(f *fault.Fault) int {
	gates := e.cc.pos.Gates
	evals := 0
	for p := e.ov.Next(); p >= 0; p = e.ov.Next() {
		evals++
		e.Set(gates[p].Out, e.evalGate(p, f))
	}
	return evals
}

// evalGate is Evaluator.evalGate against the sparse overlay: the
// effective output value of the gate at position p under fault f,
// gathering inputs through Read.
func (e *EventEval) evalGate(p int, f *fault.Fault) logic.Val {
	pos := e.cc.pos
	g := &pos.Gates[p]
	if v, ok := f.StuckNode(g.Out); ok {
		return v
	}
	gi := e.cc.Order[p]
	fanin := pos.Fanin[g.Lo:g.Hi]
	var buf [8]logic.Val
	in := e.in[:len(fanin)]
	if len(fanin) <= len(buf) {
		in = buf[:len(fanin)]
	}
	for k, id := range fanin {
		in[k] = f.SeenBy(gi, int32(k), id, e.Read(id))
	}
	return EvalOp(g.Op, in)
}

// Touched returns the frame's divergent nodes in write order — a view
// into evaluator storage, valid until the next BeginFrame. Its length
// is the frame's event count.
func (e *EventEval) Touched() []netlist.NodeID { return e.ov.Touched() }

// MaterializeInto patches the overlay into dst, which the caller has
// pre-filled with the baseline (typically one copy of the fault-free
// row): after the call dst holds the dense faulty frame.
func (e *EventEval) MaterializeInto(dst []logic.Val) {
	for _, n := range e.ov.Touched() {
		dst[n] = e.delta[n]
	}
}
