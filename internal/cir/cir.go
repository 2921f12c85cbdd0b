// Package cir is the compiled circuit intermediate representation every
// evaluation engine runs on: a levelized, struct-of-arrays view of a
// netlist.Circuit built once per circuit and shared read-only by any
// number of goroutines.
//
// The pointer-chasing netlist.Circuit stays the construction and naming
// model; CC flattens it into opcode, fanin and fanout arrays in CSR
// (compressed sparse row) form, level buckets over the evaluation order,
// and dense per-node role maps (driver, flip-flop, output position).
// Gate semantics live in exactly one place: EvalOp (the scalar
// three-valued evaluation, delegating to logic.Eval) and EvalOpVV (the
// 64-lane bit-parallel evaluation, see vv.go). The sequential fanout
// cone of a fault site — the only region a fault can ever influence —
// is computed by FillCone (see cone.go); it orders fault lists
// (SortFaultsByCone). Faulty simulation needs no cone: seqsim follows
// the fault's divergence over the whole-circuit event schedule.
package cir

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// CC is the compiled circuit. The compiled arrays are immutable after
// Compile (the per-site cone cache fills lazily and atomically); a
// single CC is safe for concurrent use by any number of evaluators.
type CC struct {
	// Net is the source netlist (names, construction-time structure).
	Net *netlist.Circuit

	// Per-gate arrays, indexed by netlist.GateID.

	// Ops is the gate operator array.
	Ops []logic.Op
	// GOut is the gate output node array.
	GOut []netlist.NodeID
	// Level is the topological level of each gate (1-based).
	Level []int32

	// CSR fanin: gate gi reads Fanin[FaninStart[gi]:FaninStart[gi+1]],
	// pin p of gi being Fanin[FaninStart[gi]+p].
	FaninStart []int32
	Fanin      []netlist.NodeID

	// CSR fanout: node n is read by the gate input pins
	// (FanoutGate[k], FanoutPin[k]) for k in
	// [FanoutStart[n], FanoutStart[n+1]).
	FanoutStart []int32
	FanoutGate  []netlist.GateID
	FanoutPin   []int32

	// Per-node role maps, indexed by netlist.NodeID.

	// Driver is the gate driving each node, or netlist.NoGate.
	Driver []netlist.GateID
	// FFOf is the index of the flip-flop a node is the Q (present-state)
	// node of, or -1.
	FFOf []int32
	// DOf is the index of the flip-flop a node is the D (next-state)
	// node of, or -1.
	DOf []int32
	// OutPos is the node's position in Outputs, or -1.
	OutPos []int32

	// Order lists all gates in ascending level order with a deterministic
	// gate-ID tie-break (identical to Net.Order); evaluating gates in
	// this order computes every node in one pass. Gates of level l
	// occupy Order[LevelStart[l]:LevelStart[l+1]] for l in [1, MaxLevel].
	Order      []netlist.GateID
	LevelStart []int32
	MaxLevel   int32
	// OrderPos is the inverse of Order: OrderPos[gi] is gate gi's
	// position. A gate's readers sit at strictly higher levels, hence at
	// later positions, so position bitmaps drain in dependency order.
	OrderPos []int32

	// Index maps, in declaration order.

	// Inputs lists the primary input nodes.
	Inputs []netlist.NodeID
	// Outputs lists the primary output nodes.
	Outputs []netlist.NodeID
	// FFQ[i] and FFD[i] are flip-flop i's present-state and next-state
	// nodes; FFInit[i] its power-up value.
	FFQ    []netlist.NodeID
	FFD    []netlist.NodeID
	FFInit []logic.Val

	// MaxFanin is the largest gate input count (0 for a circuit of
	// constants only); Evaluator gather buffers are sized by it.
	MaxFanin int

	// meta packs each gate's hot evaluation metadata (operator, output
	// node, fanin range) into one record so EvalGate touches a single
	// cache line per gate instead of gathering from four arrays. It is
	// derived from Ops/GOut/FaninStart in Compile.
	meta []GateRec

	// pos is the position-ordered view (Positions), built once on first
	// use under posOnce; MemSize reads it without the Once.
	posOnce sync.Once
	pos     atomic.Pointer[Positions]

	// fullSched is the whole-circuit event schedule (see event.go),
	// derived from the level buckets in Compile.
	fullSched Sched

	// Per-site active-cone cache (see ConeOf): one slot per possible stem
	// site (node) and branch site (reading gate), filled lazily under
	// coneMu using the shared scratch cone and read lock-free thereafter.
	// coneSet (under coneMu) holds the distinct snapshots by content
	// hash; slots of sites with equal cones share one snapshot.
	conesNode   []atomic.Pointer[Cone]
	conesGate   []atomic.Pointer[Cone]
	coneMu      sync.Mutex
	coneScratch *Cone
	coneSet     map[uint64][]*Cone
}

// GateRec is one gate's packed evaluation record: output node, fanin
// range [Lo, Hi) and operator.
type GateRec struct {
	Out    netlist.NodeID
	Lo, Hi int32
	Op     logic.Op
}

// NumNodes returns the number of signal nodes.
func (cc *CC) NumNodes() int { return len(cc.Driver) }

// NumGates returns the number of combinational gates.
func (cc *CC) NumGates() int { return len(cc.Ops) }

// NumInputs returns the number of primary inputs.
func (cc *CC) NumInputs() int { return len(cc.Inputs) }

// NumOutputs returns the number of primary outputs.
func (cc *CC) NumOutputs() int { return len(cc.Outputs) }

// NumFFs returns the number of flip-flops.
func (cc *CC) NumFFs() int { return len(cc.FFQ) }

// FaninOf returns gate gi's input nodes as a view into the CSR array.
func (cc *CC) FaninOf(gi netlist.GateID) []netlist.NodeID {
	return cc.Fanin[cc.FaninStart[gi]:cc.FaninStart[gi+1]]
}

// Compile flattens a netlist.Circuit into the struct-of-arrays IR.
func Compile(c *netlist.Circuit) *CC {
	nGates, nNodes := c.NumGates(), c.NumNodes()
	cc := &CC{
		Net:        c,
		Ops:        make([]logic.Op, nGates),
		GOut:       make([]netlist.NodeID, nGates),
		Level:      make([]int32, nGates),
		FaninStart: make([]int32, nGates+1),
		Driver:     make([]netlist.GateID, nNodes),
		FFOf:       make([]int32, nNodes),
		DOf:        make([]int32, nNodes),
		OutPos:     make([]int32, nNodes),
		Order:      c.Order,
		OrderPos:   make([]int32, nGates),
		MaxLevel:   c.MaxLevel,
		Inputs:     c.Inputs,
		Outputs:    c.Outputs,
		FFQ:        make([]netlist.NodeID, c.NumFFs()),
		FFD:        make([]netlist.NodeID, c.NumFFs()),
		FFInit:     make([]logic.Val, c.NumFFs()),
		conesNode:  make([]atomic.Pointer[Cone], nNodes),
		conesGate:  make([]atomic.Pointer[Cone], nGates),
	}
	// Gate arrays and CSR fanin.
	total := 0
	for gi := range c.Gates {
		total += len(c.Gates[gi].In)
	}
	cc.Fanin = make([]netlist.NodeID, 0, total)
	for gi := range c.Gates {
		g := &c.Gates[gi]
		cc.Ops[gi] = g.Op
		cc.GOut[gi] = g.Out
		cc.Level[gi] = g.Level
		cc.FaninStart[gi] = int32(len(cc.Fanin))
		cc.Fanin = append(cc.Fanin, g.In...)
		if len(g.In) > cc.MaxFanin {
			cc.MaxFanin = len(g.In)
		}
	}
	cc.FaninStart[nGates] = int32(len(cc.Fanin))
	cc.meta = make([]GateRec, nGates)
	for gi := range cc.meta {
		cc.meta[gi] = GateRec{
			Out: cc.GOut[gi],
			Lo:  cc.FaninStart[gi],
			Hi:  cc.FaninStart[gi+1],
			Op:  cc.Ops[gi],
		}
	}
	// CSR fanout and node roles.
	cc.FanoutStart = make([]int32, nNodes+1)
	nFan := 0
	for id := range c.Nodes {
		nFan += len(c.Nodes[id].Fanouts)
	}
	cc.FanoutGate = make([]netlist.GateID, 0, nFan)
	cc.FanoutPin = make([]int32, 0, nFan)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		cc.FanoutStart[id] = int32(len(cc.FanoutGate))
		for _, pin := range n.Fanouts {
			cc.FanoutGate = append(cc.FanoutGate, pin.Gate)
			cc.FanoutPin = append(cc.FanoutPin, pin.Input)
		}
		cc.Driver[id] = n.Driver
		cc.FFOf[id] = n.FF
		cc.DOf[id] = n.DOf
		cc.OutPos[id] = -1
	}
	cc.FanoutStart[nNodes] = int32(len(cc.FanoutGate))
	for j, id := range c.Outputs {
		cc.OutPos[id] = int32(j)
	}
	for i, ff := range c.FFs {
		cc.FFQ[i] = ff.Q
		cc.FFD[i] = ff.D
		cc.FFInit[i] = ff.Init
	}
	// Level buckets over Order (Order is sorted by ascending level), by
	// counting: LevelStart[l] is the prefix sum of gate counts below l.
	cc.LevelStart = make([]int32, cc.MaxLevel+2)
	counts := make([]int32, cc.MaxLevel+2)
	for p, gi := range cc.Order {
		counts[cc.Level[gi]]++
		cc.OrderPos[gi] = int32(p)
	}
	pos := int32(0)
	for l := int32(0); l <= cc.MaxLevel+1; l++ {
		cc.LevelStart[l] = pos
		if l <= cc.MaxLevel {
			pos += counts[l]
		}
	}
	// Whole-circuit event schedule: one bucket per occupied level,
	// derived from the same level buckets.
	off := int32(0)
	cc.fullSched.Off = append(cc.fullSched.Off, 0)
	for l := int32(1); l <= cc.MaxLevel; l++ {
		if n := cc.LevelStart[l+1] - cc.LevelStart[l]; n > 0 {
			cc.fullSched.Levels = append(cc.fullSched.Levels, l)
			off += n
			cc.fullSched.Off = append(cc.fullSched.Off, off)
		}
	}
	return cc
}

// Positions is the position-ordered view of a compiled circuit that the
// lane kernels (LaneEval, bitsim's evaluator) sweep and schedule over.
// Gates[p] is gate Order[p]'s record, its Lo/Hi range indexing Fanin,
// which holds the fanin lists copied contiguously in that order, so a
// sweep reads both front to back. Fanout is the fanout CSR (offsets
// FanoutStart) with each reading gate replaced by its position, so an
// event schedules readers without a gate-to-position lookup.
type Positions struct {
	Gates  []GateRec
	Fanin  []netlist.NodeID
	Fanout []int32
}

// Positions returns cc's position-ordered view, built on first use and
// shared read-only by every caller.
func (cc *CC) Positions() *Positions {
	cc.posOnce.Do(cc.buildPositions)
	return cc.pos.Load()
}

// buildPositions fills the position view of Positions.
func (cc *CC) buildPositions() {
	p := &Positions{
		Gates:  make([]GateRec, len(cc.Order)),
		Fanin:  make([]netlist.NodeID, 0, len(cc.Fanin)),
		Fanout: make([]int32, len(cc.FanoutGate)),
	}
	for i, gi := range cc.Order {
		lo := int32(len(p.Fanin))
		p.Fanin = append(p.Fanin, cc.FaninOf(gi)...)
		p.Gates[i] = GateRec{Out: cc.GOut[gi], Lo: lo, Hi: int32(len(p.Fanin)), Op: cc.Ops[gi]}
	}
	for k, gi := range cc.FanoutGate {
		p.Fanout[k] = cc.OrderPos[gi]
	}
	cc.pos.Store(p)
}

// forCacheCap bounds the per-process compile cache by circuit count.
// The cache used to be an unbounded pointer-keyed sync.Map, which grows
// without limit in a long-running service where every inline-netlist
// request parses a fresh *netlist.Circuit; an LRU bound keeps the
// common cases (a CLI run, the 13-circuit suite, a service with its own
// content-addressed layer on top) fully cached while capping the leak.
// An evicted circuit is simply recompiled on the next For call.
const forCacheCap = 64

// compiled caches one CC per *netlist.Circuit, LRU-bounded. Circuits
// are immutable after Build, so a pointer key is sound; the cache makes
// For cheap enough to sit behind every compatibility constructor.
var (
	compiled  = cache.New[*netlist.Circuit, *CC](forCacheCap, nil)
	compileMu sync.Mutex
)

// For returns the compiled IR for c, compiling at most once per cached
// circuit and returning the shared (read-only) CC thereafter. Callers
// that hold the result (every engine constructor does) are unaffected
// by a later eviction; only the next For call recompiles.
func For(c *netlist.Circuit) *CC {
	if cc, ok := compiled.Get(c); ok {
		return cc
	}
	// Double-checked under a compile mutex so concurrent first calls on
	// the same circuit share one CC (and its lazily filled cone cache)
	// instead of racing to install different copies.
	compileMu.Lock()
	defer compileMu.Unlock()
	if cc, ok := compiled.Get(c); ok {
		return cc
	}
	cc := Compile(c)
	compiled.Add(c, cc, 1)
	return cc
}

// Drop removes c's compiled IR from the per-process cache, releasing
// the memory it pins (arrays plus accumulated cone snapshots). Engines
// already holding the CC keep working; a later For call recompiles.
// The service layer calls this when its content-addressed cache evicts
// a circuit, so the two caches cannot disagree about what is resident.
func Drop(c *netlist.Circuit) {
	compiled.Remove(c)
}

// MemSize estimates the compiled circuit's resident bytes: the flat
// arrays plus the position view and cone snapshots built so far. It is
// an accounting estimate for cache budgeting, not an exact heap
// measurement.
func (cc *CC) MemSize() int64 {
	n := int64(len(cc.Ops))*int64(unsafe.Sizeof(logic.Op(0))) +
		int64(len(cc.GOut)+len(cc.Fanin))*int64(unsafe.Sizeof(netlist.NodeID(0))) +
		int64(len(cc.Level)+len(cc.FaninStart)+len(cc.FanoutStart)+len(cc.FanoutPin)+
			len(cc.FFOf)+len(cc.DOf)+len(cc.OutPos)+len(cc.LevelStart)+len(cc.OrderPos))*4 +
		int64(len(cc.FanoutGate)+len(cc.Driver)+len(cc.Order))*int64(unsafe.Sizeof(netlist.GateID(0))) +
		int64(len(cc.Inputs)+len(cc.Outputs)+len(cc.FFQ)+len(cc.FFD))*int64(unsafe.Sizeof(netlist.NodeID(0))) +
		int64(len(cc.FFInit)) +
		int64(len(cc.meta))*int64(unsafe.Sizeof(GateRec{})) +
		cc.fullSched.memSize() +
		int64(len(cc.conesNode)+len(cc.conesGate))*int64(unsafe.Sizeof(atomic.Pointer[Cone]{}))
	if p := cc.pos.Load(); p != nil {
		n += int64(len(p.Gates))*int64(unsafe.Sizeof(GateRec{})) +
			int64(len(p.Fanin))*int64(unsafe.Sizeof(netlist.NodeID(0))) + int64(len(p.Fanout))*4
	}
	cc.coneMu.Lock()
	defer cc.coneMu.Unlock()
	for _, cones := range cc.coneSet {
		for _, co := range cones {
			n += co.memSize()
		}
	}
	return n
}

// NoFault is the absence of a fault. Evaluation entry points take a
// *fault.Fault and use NoFault instead of nil so hot loops avoid nil
// checks; helpers that accept nil substitute it.
var NoFault = fault.Fault{Node: netlist.NoNode, Gate: netlist.NoGate}

// evalLUT1..evalLUT4 cache logic.Eval over every (operator, input)
// combination for one- to four-input gates — effectively all of a real
// netlist — so the hot paths (the level walk and the event-queue drain)
// are a base-3-indexed table load instead of the controlling-value
// scan, and never reach logic.Eval for common gates. The tables are
// derived from logic.Eval at init: a cache of the single semantics
// home, not a second implementation.
var (
	evalLUT1 [logic.Const1 + 1][3]logic.Val
	evalLUT2 [logic.Const1 + 1][9]logic.Val
	evalLUT3 [logic.Const1 + 1][27]logic.Val
	evalLUT4 [logic.Const1 + 1][81]logic.Val
)

func init() {
	for op := logic.Buf; op <= logic.Const1; op++ {
		for a := logic.Zero; a <= logic.X; a++ {
			evalLUT1[op][a] = logic.Eval(op, []logic.Val{a})
			for b := logic.Zero; b <= logic.X; b++ {
				evalLUT2[op][int(a)*3+int(b)] = logic.Eval(op, []logic.Val{a, b})
				for c := logic.Zero; c <= logic.X; c++ {
					evalLUT3[op][(int(a)*3+int(b))*3+int(c)] =
						logic.Eval(op, []logic.Val{a, b, c})
					for d := logic.Zero; d <= logic.X; d++ {
						evalLUT4[op][((int(a)*3+int(b))*3+int(c))*3+int(d)] =
							logic.Eval(op, []logic.Val{a, b, c, d})
					}
				}
			}
		}
	}
}

// EvalOp is the scalar three-valued gate evaluation — the single home
// of gate semantics (delegating to logic.Eval, through the precomputed
// tables for the common arities) that every engine evaluates through.
func EvalOp(op logic.Op, in []logic.Val) logic.Val {
	switch len(in) {
	case 2:
		return evalLUT2[op][int(in[0])*3+int(in[1])]
	case 1:
		return evalLUT1[op][in[0]]
	case 3:
		return evalLUT3[op][(int(in[0])*3+int(in[1]))*3+int(in[2])]
	case 4:
		return evalLUT4[op][((int(in[0])*3+int(in[1]))*3+int(in[2]))*3+int(in[3])]
	}
	return logic.Eval(op, in)
}

// Evaluator owns the gather scratch for scalar gate evaluation over one
// CC. It is not safe for concurrent use; create one per goroutine (the
// CC behind it is shared).
type Evaluator struct {
	cc *CC
	in []logic.Val
}

// NewEvaluator returns an evaluator for the compiled circuit.
func (cc *CC) NewEvaluator() *Evaluator {
	return &Evaluator{cc: cc, in: make([]logic.Val, cc.MaxFanin)}
}

// CC returns the compiled circuit the evaluator runs on.
func (e *Evaluator) CC() *CC { return e.cc }

// EvalGate computes the effective output value of gate gi under fault f
// (non-nil; use &NoFault) from the node values in vals. "Effective"
// means the value readers observe: a stem-stuck output holds its stuck
// value, and branch faults are applied to the pins that read them.
func (e *Evaluator) EvalGate(gi netlist.GateID, f *fault.Fault, vals []logic.Val) logic.Val {
	cc := e.cc
	m := &cc.meta[gi]
	if v, ok := f.StuckNode(m.Out); ok {
		return v
	}
	fanin := cc.Fanin[m.Lo:m.Hi]
	// Gather through a stack buffer (spilling to the heap scratch only
	// for the rare very-wide gate): the hot path stays allocation-free
	// and bounds-check-free.
	var buf [8]logic.Val
	in := e.in[:len(fanin)]
	if len(fanin) <= len(buf) {
		in = buf[:len(fanin)]
	}
	for p, id := range fanin {
		in[p] = f.SeenBy(gi, int32(p), id, vals[id])
	}
	return EvalOp(m.Op, in)
}

// EvalFrame computes the effective value of every node for one time
// frame: pi are the primary-input values, ps the effective
// present-state values, f the injected fault (nil for fault-free), and
// vals the output buffer with one entry per node.
func (e *Evaluator) EvalFrame(pi, ps []logic.Val, f *fault.Fault, vals []logic.Val) {
	if f == nil {
		f = &NoFault
	}
	cc := e.cc
	for i, id := range cc.Inputs {
		vals[id] = f.Observed(id, pi[i])
	}
	for i, q := range cc.FFQ {
		vals[q] = f.Observed(q, ps[i])
	}
	for _, gi := range cc.Order {
		vals[cc.GOut[gi]] = e.EvalGate(gi, f, vals)
	}
}
