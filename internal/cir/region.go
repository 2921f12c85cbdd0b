package cir

// Per-fault resimulation regions: the sequential fanout closure of a
// fault site together with the Q nodes of a set of seed flip-flops.
//
// The bit-parallel resimulation of expanded state sequences (core,
// Section 3.4) confines its vector frame evaluation to this closure.
// The fault's active cone alone is not enough there: state expansion
// pins flip-flops outside the cone, and their values propagate to other
// next-state inputs where they can refine the sequence or expose an
// infeasibility conflict. Seeding the closure with every flip-flop the
// expansion assigned restores exactness — any flip-flop whose next-state
// (D) node lies outside the region reads only unexpanded values and
// therefore can never refine or conflict, and any node outside the
// region keeps its retained faulty-trace value. The closure is also
// closed under fanout, so the events of a LaneEval pass seeded at region
// Q nodes never leave it.
//
// Like Cone, a Region depends only on the sites, never on the stuck
// polarity, but unlike cones regions are not cached per fault: the seed
// set differs per expansion, so the caller keeps one Region as scratch
// and refills it per resimulation pass.

import (
	"repro/internal/fault"
	"repro/internal/netlist"
)

// Region is the reusable result of FillRegion. The exported slices are
// views into storage recycled by the next FillRegion call on the same
// Region; a Region is not safe for concurrent use (the CC it is filled
// from is).
type Region struct {
	// Gates lists the region's gates in ascending topological level, so
	// a gate's readers always sit at later positions: LaneEval schedules
	// events as a bitmap over these positions.
	Gates []netlist.GateID
	// QFFs lists (ascending) the indices of flip-flops whose Q node is
	// in the region: exactly the state variables whose lane values must
	// be loaded from the packed sequence state each frame.
	QFFs []int32
	// DFFs lists (ascending) the indices of flip-flops whose D node is
	// in the region: the only flip-flops whose next-state comparison can
	// refine a sequence or expose a conflict.
	DFFs []int32
	// Outs lists (ascending) the positions in CC.Outputs of the primary
	// outputs in the region: the only outputs where a detection can
	// occur (the region contains the fault's active cone).
	Outs []int32

	nodes  []netlist.NodeID // marked region nodes, for sparse clearing
	inNode []bool
	inGate []bool
	// pos maps a region gate to its position in Gates; entries of gates
	// outside the region are stale and never read.
	pos     []int32
	stack   []netlist.NodeID
	byLevel [][]netlist.GateID // level-bucket scratch for the gate sort
}

// NewRegion returns an empty region sized for the circuit.
func (cc *CC) NewRegion() *Region {
	return &Region{
		inNode:  make([]bool, cc.NumNodes()),
		inGate:  make([]bool, cc.NumGates()),
		pos:     make([]int32, cc.NumGates()),
		byLevel: make([][]netlist.GateID, cc.MaxLevel+1),
	}
}

// InNode reports whether node n is in the region.
func (r *Region) InNode(n netlist.NodeID) bool { return r.inNode[n] }

// FillRegion computes the sequential fanout closure of fault f's site
// plus the Q nodes of the seed flip-flops into r, reusing r's storage.
// seedFFs lists flip-flop indices (duplicates are fine). A fault with
// no site contributes nothing; the closure of the seeds alone is still
// computed.
func (cc *CC) FillRegion(f *fault.Fault, seedFFs []int32, r *Region) {
	for _, n := range r.nodes {
		r.inNode[n] = false
	}
	for _, g := range r.Gates {
		r.inGate[g] = false
	}
	r.nodes = r.nodes[:0]
	r.Gates = r.Gates[:0]
	r.QFFs = r.QFFs[:0]
	r.DFFs = r.DFFs[:0]
	r.Outs = r.Outs[:0]
	r.stack = r.stack[:0]
	if f.Node != netlist.NoNode {
		if f.IsStem() {
			cc.regionAddNode(r, f.Node)
		} else {
			// Branch fault: only the reading gate sees the stuck value.
			cc.regionAddGate(r, f.Gate)
		}
	}
	for _, j := range seedFFs {
		cc.regionAddNode(r, cc.FFQ[j])
	}
	for len(r.stack) > 0 {
		n := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for k := cc.FanoutStart[n]; k < cc.FanoutStart[n+1]; k++ {
			cc.regionAddGate(r, cc.FanoutGate[k])
		}
		if i := cc.DOf[n]; i >= 0 {
			// Sequential crossing: a refined D value makes the Q node
			// carry lane-divergent values in the next frame.
			cc.regionAddNode(r, cc.FFQ[i])
		}
	}
	// FF and output lists by filtered scans of the compiled index maps,
	// ascending with no sort (same idiom as FillCone).
	for i := range cc.FFQ {
		if r.inNode[cc.FFQ[i]] {
			r.QFFs = append(r.QFFs, int32(i))
		}
		if r.inNode[cc.FFD[i]] {
			r.DFFs = append(r.DFFs, int32(i))
		}
	}
	for j, id := range cc.Outputs {
		if r.inNode[id] {
			r.Outs = append(r.Outs, int32(j))
		}
	}
	// Sort Gates by ascending level with a bucket pass so position
	// order respects combinational dependencies inside the region.
	for _, g := range r.Gates {
		l := cc.Level[g]
		r.byLevel[l] = append(r.byLevel[l], g)
	}
	r.Gates = r.Gates[:0]
	for l := range r.byLevel {
		r.Gates = append(r.Gates, r.byLevel[l]...)
		r.byLevel[l] = r.byLevel[l][:0]
	}
	for p, g := range r.Gates {
		r.pos[g] = int32(p)
	}
}

// regionAddNode marks a node and queues its fanout for traversal.
func (cc *CC) regionAddNode(r *Region, n netlist.NodeID) {
	if r.inNode[n] {
		return
	}
	r.inNode[n] = true
	r.nodes = append(r.nodes, n)
	r.stack = append(r.stack, n)
}

// regionAddGate marks a gate and adds its output node.
func (cc *CC) regionAddGate(r *Region, g netlist.GateID) {
	if r.inGate[g] {
		return
	}
	r.inGate[g] = true
	r.Gates = append(r.Gates, g)
	cc.regionAddNode(r, cc.GOut[g])
}
