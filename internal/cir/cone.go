package cir

// Per-fault active cones: the sequential fanout closure of a fault
// site. Only nodes in this closure can ever differ from the fault-free
// machine. Cones describe a fault's reach for fault ordering
// (SortFaultsByCone); faulty-frame simulation does not use them, since
// it seeds and reads only the nodes the faulty machine actually changed,
// a subset of the cone.
//
// The closure generalizes netlist.FanoutCone across time frames: the
// combinational fanout of the fault site is closed over flip-flop
// crossings (a next-state (D) node in the cone makes the flip-flop's
// present-state (Q) node differ in the NEXT frame, whose combinational
// fanout then joins the cone), iterated to a fixpoint. For a branch
// fault the cone starts at the reading gate; the stem node itself is
// unaffected.

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Cone is the reusable result of FillCone. The exported slices are
// views into storage recycled by the next FillCone call on the same
// Cone; a Cone is not safe for concurrent use (the CC it is filled
// from is). The cone depends only on the fault site (node, or reading
// gate for a branch fault), never on the stuck polarity.
type Cone struct {
	// Gates lists the cone's gates in discovery order (unordered); use
	// InGate for membership tests.
	Gates []netlist.GateID
	// FFs lists (ascending) the indices of flip-flops whose Q node is in
	// the cone: exactly the state variables whose faulty value can
	// differ from the fault-free value.
	FFs []int32
	// Outs lists (ascending) the positions in CC.Outputs of the primary
	// outputs in the cone: the only outputs where a detection can occur.
	Outs []int32

	nodes  []netlist.NodeID // marked nodes, for sparse clearing
	inNode []bool
	inGate []bool
	stack  []netlist.NodeID
}

// NewCone returns an empty cone sized for the circuit.
func (cc *CC) NewCone() *Cone {
	return &Cone{
		inNode: make([]bool, cc.NumNodes()),
		inGate: make([]bool, cc.NumGates()),
	}
}

// emptyCone is the shared cone of a fault with no site (NoFault).
var emptyCone = &Cone{}

// snapshot returns a compact immutable copy of the cone: the three
// lists trimmed to exact size, without the membership marker arrays
// (InNode/InGate are not supported on snapshots — they exist for the
// fillable scratch cones tests inspect).
func (co *Cone) snapshot() *Cone {
	return &Cone{
		Gates: append([]netlist.GateID(nil), co.Gates...),
		FFs:   append([]int32(nil), co.FFs...),
		Outs:  append([]int32(nil), co.Outs...),
	}
}

// memSize estimates a cone snapshot's resident bytes for cache
// accounting; a nil cone (an unfilled slot) costs nothing.
func (co *Cone) memSize() int64 {
	if co == nil {
		return 0
	}
	return int64(len(co.Gates))*int64(unsafe.Sizeof(netlist.GateID(0))) +
		int64(len(co.FFs)+len(co.Outs))*4 +
		int64(len(co.nodes)+len(co.stack))*int64(unsafe.Sizeof(netlist.NodeID(0))) +
		int64(len(co.inNode)+len(co.inGate))
}

// ConeOf returns the active cone of f's site, computed at most once per
// site per compiled circuit and shared (immutably) thereafter. Lookups
// are allocation-free: sites index dense per-node/per-gate slot arrays.
// Fault-list passes repeated per test sequence (fault dropping
// re-simulates every remaining fault against each new sequence) hit the
// cache instead of re-running the closure.
func (cc *CC) ConeOf(f *fault.Fault) *Cone {
	var slot *atomic.Pointer[Cone]
	switch {
	case f.Node == netlist.NoNode:
		return emptyCone
	case f.IsStem():
		slot = &cc.conesNode[f.Node]
	default:
		slot = &cc.conesGate[f.Gate]
	}
	if co := slot.Load(); co != nil {
		return co
	}
	cc.coneMu.Lock()
	defer cc.coneMu.Unlock()
	if co := slot.Load(); co != nil {
		return co
	}
	if cc.coneScratch == nil {
		cc.coneScratch = cc.NewCone()
	}
	cc.FillCone(f, cc.coneScratch)
	co := cc.internCone(cc.coneScratch)
	slot.Store(co)
	return co
}

// internCone returns a snapshot of the filled cone co, shared with
// every earlier site whose cone has the same gate set, flip-flops and
// outputs. All sites feeding one strongly connected block of flip-flops
// share its sequential closure, so distinct cones are few: about one
// site in fifteen on the sg298 stand-ins. Gates stay in discovery
// order, so equal sets are compared through co's gate markers, in time
// linear in the cone like FillCone itself. Callers hold coneMu.
func (cc *CC) internCone(co *Cone) *Cone {
	// The gate-set hash is a sum of mixed IDs, so it ignores order.
	var h uint64
	for _, g := range co.Gates {
		x := (uint64(uint32(g)) + 1) * 0x9e3779b97f4a7c15
		h += x ^ x>>31
	}
	h = fnvList(fnvList(h, co.FFs), co.Outs)
	outside := func(g netlist.GateID) bool { return !co.inGate[g] }
	for _, s := range cc.coneSet[h] {
		if len(s.Gates) == len(co.Gates) && slices.Equal(s.FFs, co.FFs) &&
			slices.Equal(s.Outs, co.Outs) && !slices.ContainsFunc(s.Gates, outside) {
			return s
		}
	}
	s := co.snapshot()
	if cc.coneSet == nil {
		cc.coneSet = make(map[uint64][]*Cone)
	}
	cc.coneSet[h] = append(cc.coneSet[h], s)
	return s
}

// fnvList folds xs and a list terminator into the FNV-1a hash h.
func fnvList(h uint64, xs []int32) uint64 {
	const prime = 1099511628211
	for _, x := range xs {
		h = (h ^ uint64(uint32(x))) * prime
	}
	return (h ^ 0xff) * prime
}

// Size returns the number of gates in the cone.
func (co *Cone) Size() int { return len(co.Gates) }

// InNode reports whether node n is in the cone.
func (co *Cone) InNode(n netlist.NodeID) bool { return co.inNode[n] }

// InGate reports whether gate g is in the cone.
func (co *Cone) InGate(g netlist.GateID) bool { return co.inGate[g] }

// FillCone computes the sequential fanout closure of fault f's site
// into co, reusing co's storage. A fault with no site (f.Node ==
// netlist.NoNode, i.e. NoFault) yields an empty cone.
func (cc *CC) FillCone(f *fault.Fault, co *Cone) {
	for _, n := range co.nodes {
		co.inNode[n] = false
	}
	for _, g := range co.Gates {
		co.inGate[g] = false
	}
	co.nodes = co.nodes[:0]
	co.Gates = co.Gates[:0]
	co.FFs = co.FFs[:0]
	co.Outs = co.Outs[:0]
	co.stack = co.stack[:0]
	if f.Node == netlist.NoNode {
		return
	}
	if f.IsStem() {
		cc.coneAddNode(co, f.Node)
	} else {
		// Branch fault: only the reading gate sees the stuck value; the
		// stem node and its other readers are unaffected.
		cc.coneAddGate(co, f.Gate)
	}
	for len(co.stack) > 0 {
		n := co.stack[len(co.stack)-1]
		co.stack = co.stack[:len(co.stack)-1]
		for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
			cc.coneAddGate(co, cc.FanoutGate[k])
		}
		if i := cc.DOf[n]; i >= 0 {
			// Sequential crossing: a differing D value makes the Q node
			// differ in the next frame.
			cc.coneAddNode(co, cc.FFQ[i])
		}
	}
	// Collect the FF and output lists by filtered scans of the compiled
	// index maps: FFQ and Outputs are in declaration order, so the lists
	// come out ascending with no sort call (and none of sort.Slice's
	// per-call allocations). Gates stays in discovery order — nothing
	// iterates it positionally.
	for i, q := range cc.FFQ {
		if co.inNode[q] {
			co.FFs = append(co.FFs, int32(i))
		}
	}
	for j, id := range cc.Outputs {
		if co.inNode[id] {
			co.Outs = append(co.Outs, int32(j))
		}
	}
}

// coneAddNode marks a node and queues its fanout for traversal; the
// node's flip-flop/output roles are collected by the post-traversal
// scans in FillCone.
func (cc *CC) coneAddNode(co *Cone, n netlist.NodeID) {
	if co.inNode[n] {
		return
	}
	co.inNode[n] = true
	co.nodes = append(co.nodes, n)
	co.stack = append(co.stack, n)
}

// coneAddGate marks a gate and adds its output node.
func (cc *CC) coneAddGate(co *Cone, g netlist.GateID) {
	if co.inGate[g] {
		return
	}
	co.inGate[g] = true
	co.Gates = append(co.Gates, g)
	cc.coneAddNode(co, cc.GOut[g])
}
