package cir

// Cone-locality fault ordering. SortFaultsByCone reorders a fault list
// so faults on the same site become adjacent, and sites are grouped by
// the shape of their cones (first observable output, first state
// variable, cone size) so neighbouring groups overlap where the circuit
// allows it. Faulty simulation itself reads no cone (seqsim follows
// each fault's divergence), so the order changes no result and buys no
// cone reuse; it only groups faults with similar reach.
//
// The ordering is a pure, deterministic function of the compiled
// circuit and the input list — it does not depend on cache warmth — so
// a warm rerun of the same request orders its faults identically to the
// cold run and results stay byte-identical.

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// coneOrderKey is the sort key of one fault: the shape of its active
// cone, then the site, then the stuck polarity for total determinism.
type coneOrderKey struct {
	out, ff int32 // first cone output / FF index; MaxInt32 when none
	size    int32 // cone gate count
	node    netlist.NodeID
	gate    netlist.GateID
	pin     int32
	stuck   uint8
}

func (a coneOrderKey) less(b coneOrderKey) bool {
	switch {
	case a.out != b.out:
		return a.out < b.out
	case a.ff != b.ff:
		return a.ff < b.ff
	case a.size != b.size:
		return a.size < b.size
	case a.node != b.node:
		return a.node < b.node
	case a.gate != b.gate:
		return a.gate < b.gate
	case a.pin != b.pin:
		return a.pin < b.pin
	}
	return a.stuck < b.stuck
}

const noCone = int32(1<<31 - 1)

// SortFaultsByCone reorders faults in place so faults with identical or
// overlapping active cones are adjacent (see the comment at the top of
// this file). It computes every fault's cone snapshot, and they stay
// cached on cc.
func SortFaultsByCone(cc *CC, faults []fault.Fault) {
	keys := make([]coneOrderKey, len(faults))
	for i := range faults {
		co := cc.ConeOf(&faults[i])
		k := coneOrderKey{
			out:   noCone,
			ff:    noCone,
			size:  int32(co.Size()),
			node:  faults[i].Node,
			gate:  faults[i].Gate,
			pin:   faults[i].Pin,
			stuck: uint8(faults[i].Stuck),
		}
		if len(co.Outs) > 0 {
			k.out = co.Outs[0]
		}
		if len(co.FFs) > 0 {
			k.ff = co.FFs[0]
		}
		keys[i] = k
	}
	idx := make([]int, len(faults))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]].less(keys[idx[b]]) })
	sorted := make([]fault.Fault, len(faults))
	for i, j := range idx {
		sorted[i] = faults[j]
	}
	copy(faults, sorted)
}
