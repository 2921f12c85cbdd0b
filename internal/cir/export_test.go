package cir

import "repro/internal/netlist"

// BuildSched returns the level-bucketed event schedule of a gate subset
// (one bucket per occupied level, ascending), for tests that bind an
// evaluator to a schedule other than FullSched.
func (cc *CC) BuildSched(gates []netlist.GateID) *Sched {
	counts := make([]int32, cc.MaxLevel+1)
	for _, g := range gates {
		counts[cc.Level[g]]++
	}
	s := &Sched{Off: []int32{0}}
	off := int32(0)
	for l := int32(1); l <= cc.MaxLevel; l++ {
		if counts[l] > 0 {
			s.Levels = append(s.Levels, l)
			off += counts[l]
			s.Off = append(s.Off, off)
		}
	}
	return s
}
