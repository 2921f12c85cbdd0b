package cir

// 256-lane bit-parallel three-valued values: the wide counterpart of VV,
// backed by [4]uint64 words so a single value carries four VV's worth of
// lanes. Pure Go word-parallel operations — each lane-wise op is four
// independent uint64 ops the compiler keeps in registers; no explicit
// SIMD. bitsim packs 255 faulty machines per word with these, and
// implic's lane frame packs one time unit's implication assertions.

import "repro/internal/logic"

// Lanes4 is the lane count of a VV4.
const Lanes4 = 256

// VV4 is a 256-lane three-valued vector: bit k of word k/64 of One set
// means lane k carries 1, the same bit of Zero means lane k carries 0,
// neither set means X. (Both set is invalid.)
type VV4 struct {
	Zero, One [4]uint64
}

// Broadcast4 returns the VV4 carrying v on every lane.
func Broadcast4(v logic.Val) VV4 {
	const all = ^uint64(0)
	switch v {
	case logic.Zero:
		return VV4{Zero: [4]uint64{all, all, all, all}}
	case logic.One:
		return VV4{One: [4]uint64{all, all, all, all}}
	}
	return VV4{}
}

// laneBroadcast[v] is Broadcast4(v), indexed by logic.Val.
var laneBroadcast = [...]VV4{
	logic.Zero: Broadcast4(logic.Zero),
	logic.One:  Broadcast4(logic.One),
	logic.X:    Broadcast4(logic.X),
}

// LaneBroadcast returns Broadcast4(v) from a shared table: an unstamped
// node of a 256-lane overlay reads its baseline value through one
// lookup. The result is read-only.
func LaneBroadcast(v logic.Val) *VV4 { return &laneBroadcast[v] }

// Lane extracts the value of lane k.
func (v VV4) Lane(k uint) logic.Val {
	w, b := k>>6, k&63
	switch {
	case v.One[w]>>b&1 == 1:
		return logic.One
	case v.Zero[w]>>b&1 == 1:
		return logic.Zero
	}
	return logic.X
}

// SetLane overwrites lane k with val, clearing it first.
func (v *VV4) SetLane(k uint, val logic.Val) {
	w, b := k>>6, uint64(1)<<(k&63)
	v.One[w] &^= b
	v.Zero[w] &^= b
	switch val {
	case logic.One:
		v.One[w] |= b
	case logic.Zero:
		v.Zero[w] |= b
	}
}

// Not complements all lanes.
func (v VV4) Not() VV4 { return VV4{Zero: v.One, One: v.Zero} }
