package cir

// Event-driven sparse-delta evaluation: a level-bucketed event schedule
// over the compiled fanout CSR plus an epoch-stamped sparse value
// overlay. Instead of copying the whole fault-free frame and walking
// every cone gate level by level, the event evaluator seeds the handful
// of nodes a frame actually perturbs (the fault site and the changed
// present-state lines), then visits only gates whose inputs changed.
// Values equal to the bound baseline are never stored: the overlay
// holds exactly the divergent nodes, stamped with a per-frame epoch so
// starting a new frame is O(1) instead of O(nodes).
//
// The schedule is an array-backed bucket list, not a heap: the region a
// frame can touch (a fault's active cone, or the whole circuit) is
// known up front, so each occupied level gets a pre-sized bucket and
// draining is an ascending scan over the occupied levels only. Because
// a gate's readers always sit at strictly higher levels, every gate is
// evaluated at most once per frame and a bucket can be recycled the
// moment it is drained.

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Sched is a level-bucketed event schedule over a fixed gate region
// (a fault's active cone, or the whole circuit). Levels lists the
// region's occupied levels in ascending order; the bucket for Levels[k]
// has capacity Off[k+1]-Off[k] — the number of region gates at that
// level, which bounds the gates ever enqueued there because a gate
// enters the queue at most once per frame. A Sched is immutable after
// construction and shared read-only by any number of evaluators.
type Sched struct {
	// Levels lists the distinct gate levels present in the region,
	// ascending.
	Levels []int32
	// Off holds len(Levels)+1 prefix offsets into the evaluator's bucket
	// storage: bucket k spans [Off[k], Off[k+1]).
	Off []int32
}

// NumGates returns the total bucket capacity — the number of gates in
// the scheduled region.
func (s *Sched) NumGates() int {
	if len(s.Off) == 0 {
		return 0
	}
	return int(s.Off[len(s.Off)-1])
}

// memSize estimates the schedule's resident bytes for cache accounting.
func (s *Sched) memSize() int64 {
	return int64(len(s.Levels)+len(s.Off)) * 4
}

// buildSched fills s with the level buckets of the given gate set.
// counts is zeroed scratch with at least MaxLevel+1 entries; it is
// returned zeroed.
func (cc *CC) buildSched(gates []netlist.GateID, counts []int32, s *Sched) {
	s.Levels = s.Levels[:0]
	s.Off = s.Off[:0]
	for _, g := range gates {
		counts[cc.Level[g]]++
	}
	s.Off = append(s.Off, 0)
	off := int32(0)
	for l := int32(1); l <= cc.MaxLevel; l++ {
		if counts[l] == 0 {
			continue
		}
		s.Levels = append(s.Levels, l)
		off += counts[l]
		s.Off = append(s.Off, off)
		counts[l] = 0
	}
}

// FullSched returns the whole-circuit event schedule (every gate, every
// occupied level), built once at Compile. It backs the full-seeding
// entry point (seqsim's FrameDelta) where the perturbed region is not
// confined to a cone.
func (cc *CC) FullSched() *Sched { return &cc.fullSched }

// EventEval is the event-driven sparse-delta frame evaluator: scratch
// for one goroutine evaluating frames of one compiled circuit against a
// caller-bound baseline. It is not safe for concurrent use; create one
// per worker (the CC and Scheds behind it are shared).
//
// A frame runs as BeginFrame (bind baseline + schedule, bump epoch),
// any number of Set/Enqueue seeds, one Drain, then sparse Read /
// Touched / MaterializeInto consumption. Values diverging from the
// baseline live in delta[n] stamped with the current epoch; unstamped
// nodes read through to the baseline, so no per-frame copy or clear of
// the node arrays ever happens.
type EventEval struct {
	cc *CC

	// base is the fault-free frame the overlay diverges from, bound per
	// frame and never written.
	base []logic.Val
	// delta/nodeStamp are the sparse overlay: delta[n] is live iff
	// nodeStamp[n] == epoch.
	delta     []logic.Val
	nodeStamp []uint32
	// touched lists the live overlay nodes in write order — every node
	// whose effective value differs (or was explicitly seeded) this
	// frame. Each node appears at most once.
	touched []netlist.NodeID

	// gateStamp dedups queue insertion: gate g is queued this frame iff
	// gateStamp[g] == epoch. Gates are never re-queued after evaluation
	// because all their writers sit at lower levels.
	gateStamp []uint32
	epoch     uint32

	// Bucket queue over the bound schedule: bucket k of sched spans
	// buf[sched.Off[k]:sched.Off[k+1]] with fill[k] gates pending.
	// Outside Drain every fill entry is zero (Drain recycles each bucket
	// as it passes — pushes only ever target strictly higher levels).
	sched *Sched
	buf   []netlist.GateID
	fill  []int32
	// occ marks the non-empty buckets (bit k of occ[k>>6] is set iff
	// fill[k] > 0), so Drain scans occupied buckets only instead of
	// every schedule level — most frames carry a handful of events
	// across long schedules. Like fill, all-zero outside Drain.
	occ    []uint64
	slotOf []int32 // level -> bucket index in sched; valid for sched only

	// in is the gather spill for the rare gate wider than the stack
	// buffer.
	in []logic.Val
}

// NewEventEval returns an event evaluator sized for the circuit.
func (cc *CC) NewEventEval() *EventEval {
	return &EventEval{
		cc:        cc,
		delta:     make([]logic.Val, cc.NumNodes()),
		nodeStamp: make([]uint32, cc.NumNodes()),
		gateStamp: make([]uint32, cc.NumGates()),
		slotOf:    make([]int32, cc.MaxLevel+1),
		in:        make([]logic.Val, cc.MaxFanin),
	}
}

// BeginFrame starts a new frame: the overlay empties (epoch bump, no
// clearing), base becomes the read-through baseline, and sched the
// active schedule. base is aliased, not copied — it must stay unchanged
// until the frame's reads are done.
func (e *EventEval) BeginFrame(base []logic.Val, sched *Sched) {
	e.base = base
	e.touched = e.touched[:0]
	e.epoch++
	if e.epoch == 0 {
		// uint32 wrap: stale stamps could alias the new epoch, so pay the
		// one-in-4-billion dense clear and restart at 1.
		clear(e.nodeStamp)
		clear(e.gateStamp)
		e.epoch = 1
	}
	if sched != e.sched {
		e.bindSched(sched)
	}
}

// bindSched points the bucket queue at a new schedule, resizing the
// bucket storage and refreshing the level->bucket map. slotOf entries
// of levels outside the schedule go stale, which is safe: only gates of
// the scheduled region are ever enqueued (a cone is closed under
// fanout, so every reader of a cone node is a cone gate).
func (e *EventEval) bindSched(s *Sched) {
	e.sched = s
	total := s.NumGates()
	if cap(e.buf) < total {
		e.buf = make([]netlist.GateID, total)
	} else {
		e.buf = e.buf[:total]
	}
	if cap(e.fill) < len(s.Levels) {
		e.fill = make([]int32, len(s.Levels))
	} else {
		e.fill = e.fill[:len(s.Levels)]
		clear(e.fill)
	}
	words := (len(s.Levels) + 63) >> 6
	if cap(e.occ) < words {
		e.occ = make([]uint64, words)
	} else {
		e.occ = e.occ[:words]
		clear(e.occ)
	}
	for k, l := range s.Levels {
		e.slotOf[l] = int32(k)
	}
}

// Read returns node id's effective value this frame: the overlay value
// if the node diverged, the baseline otherwise.
func (e *EventEval) Read(id netlist.NodeID) logic.Val {
	if e.nodeStamp[id] == e.epoch {
		return e.delta[id]
	}
	return e.base[id]
}

// Set records node id's effective value. A value equal to the current
// effective value is a no-op; otherwise the overlay absorbs it and
// every reading gate is enqueued. Seeding and gate evaluation both
// funnel through here, so touched ends up as exactly the divergent
// node set.
func (e *EventEval) Set(id netlist.NodeID, v logic.Val) {
	if v == e.Read(id) {
		return
	}
	if e.nodeStamp[id] != e.epoch {
		e.nodeStamp[id] = e.epoch
		e.touched = append(e.touched, id)
	}
	e.delta[id] = v
	cc := e.cc
	for k := cc.FanoutStart[id]; k < cc.FanoutStart[id+1]; k++ {
		e.push(cc.FanoutGate[k])
	}
}

// Enqueue queues gate g for evaluation without a value change — the
// branch-fault seed, where the faulty pin's stem keeps its fault-free
// value but the reading gate must still be re-evaluated.
func (e *EventEval) Enqueue(g netlist.GateID) { e.push(g) }

func (e *EventEval) push(g netlist.GateID) {
	if e.gateStamp[g] == e.epoch {
		return
	}
	e.gateStamp[g] = e.epoch
	k := e.slotOf[e.cc.Level[g]]
	e.buf[e.sched.Off[k]+e.fill[k]] = g
	e.fill[k]++
	e.occ[k>>6] |= 1 << (k & 63)
}

// Drain evaluates every queued gate in ascending level order under
// fault f (non-nil; use &NoFault), feeding output changes back through
// Set, and returns the number of gates evaluated. The occupancy bitmap
// steers the scan straight to non-empty buckets (ascending bit order =
// ascending level order). Each bucket is recycled as soon as it is
// processed: a gate's readers always sit at strictly higher levels, so
// no push can target a drained bucket — pushes land only on higher
// bits of the current word (picked up by the inner re-read) or later
// words (picked up by the outer loop).
func (e *EventEval) Drain(f *fault.Fault) int {
	cc := e.cc
	s := e.sched
	evals := 0
	for w := range e.occ {
		for e.occ[w] != 0 {
			bit := bits.TrailingZeros64(e.occ[w])
			e.occ[w] &^= 1 << bit
			k := w<<6 | bit
			b := e.buf[s.Off[k] : s.Off[k]+e.fill[k]]
			e.fill[k] = 0
			evals += len(b)
			for _, gi := range b {
				e.Set(cc.GOut[gi], e.evalGate(gi, f))
			}
		}
	}
	return evals
}

// evalGate is Evaluator.EvalGate against the sparse overlay: the
// effective output value of gate gi under fault f, gathering inputs
// through Read.
func (e *EventEval) evalGate(gi netlist.GateID, f *fault.Fault) logic.Val {
	cc := e.cc
	m := &cc.meta[gi]
	if v, ok := f.StuckNode(m.Out); ok {
		return v
	}
	fanin := cc.Fanin[m.Lo:m.Hi]
	var buf [8]logic.Val
	in := e.in[:len(fanin)]
	if len(fanin) <= len(buf) {
		in = buf[:len(fanin)]
	}
	for p, id := range fanin {
		in[p] = f.SeenBy(gi, int32(p), id, e.Read(id))
	}
	return EvalOp(m.Op, in)
}

// Touched returns the frame's divergent nodes in write order — a view
// into evaluator storage, valid until the next BeginFrame. Its length
// is the frame's event count.
func (e *EventEval) Touched() []netlist.NodeID { return e.touched }

// MaterializeInto patches the overlay into dst, which the caller has
// pre-filled with the baseline (typically one copy of the fault-free
// row): after the call dst holds the dense faulty frame.
func (e *EventEval) MaterializeInto(dst []logic.Val) {
	for _, n := range e.touched {
		dst[n] = e.delta[n]
	}
}
