// Package seqsim implements conventional three-valued simulation of
// synchronous sequential circuits: fault-free simulation, serial stuck-at
// fault simulation with fault dropping, and detection checking under the
// single observation time approach.
//
// Simulation starts from the all-unspecified (X) initial state and applies
// one input pattern per time frame, exactly as in the fault simulators the
// paper builds on [1]. All evaluation runs on the compiled circuit IR
// (internal/cir). Faulty simulation is driven by the fault's divergence:
// the simulator carries from frame to frame the set of flip-flops whose
// faulty present state differs from the fault-free one, and each faulty
// frame seeds only those flip-flops and the fault site, then reads and
// checks only the nodes the faulty machine changed. Its cost scales with
// the divergence, not with the circuit or the fault's fanout.
package seqsim

import (
	"fmt"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// Pattern is one input vector: one value per primary input, in the
// circuit's input order.
type Pattern []logic.Val

// Sequence is a test sequence: Sequence[u] is the pattern applied at time
// frame u.
type Sequence []Pattern

// ParseSequence parses one pattern string per element, e.g. {"1011", "0x10"}.
func ParseSequence(lines []string) (Sequence, error) {
	seq := make(Sequence, len(lines))
	for i, s := range lines {
		p, err := logic.ParseVals(s)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		seq[i] = p
	}
	return seq, nil
}

// Trace records the simulation history of one machine (fault-free or
// faulty) over a test sequence of length L.
type Trace struct {
	// States[u] holds the effective present-state values at time u, for
	// u in [0, L]. States[0] is the initial state; States[L] is the state
	// after the final pattern.
	States [][]logic.Val
	// Outputs[u] holds the observed primary-output values at time u, for
	// u in [0, L-1].
	Outputs [][]logic.Val
	// Nodes[u] holds every node's effective value in frame u, for u in
	// [0, L-1]. Nil unless the simulation was asked to keep node values.
	Nodes [][]logic.Val

	// Preallocated row storage for RunFaultInto (nil on traces built by
	// Run/RunFault). States/Outputs/Nodes above are truncated views of
	// these rows; the backing arrays are reused across calls.
	allStates  [][]logic.Val
	allOutputs [][]logic.Val
	allNodes   [][]logic.Val
}

// makeRows carves n rows of width w out of one flat slab.
func makeRows(n, w int) [][]logic.Val {
	flat := make([]logic.Val, n*w)
	rows := make([][]logic.Val, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// NewTrace preallocates a trace for RunFaultInto: row storage for an
// L-frame simulation of c, reused across calls instead of allocated per
// fault. keepNodes must match the RunFaultInto calls it will serve.
func NewTrace(c *netlist.Circuit, L int, keepNodes bool) *Trace {
	tr := &Trace{
		allStates:  makeRows(L+1, c.NumFFs()),
		allOutputs: makeRows(L, c.NumOutputs()),
	}
	if keepNodes {
		tr.allNodes = makeRows(L, c.NumNodes())
	}
	return tr
}

// Len returns the number of simulated time frames.
func (t *Trace) Len() int { return len(t.Outputs) }

// MemSize estimates the trace's resident bytes for cache budgeting
// (one byte per logic value, counting the preallocated backing rows
// where present so reusable traces account their full footprint).
func (t *Trace) MemSize() int64 {
	var n int64
	rows := func(rr [][]logic.Val) {
		for _, r := range rr {
			n += int64(len(r))
		}
	}
	if t.allStates != nil {
		rows(t.allStates)
		rows(t.allOutputs)
		rows(t.allNodes)
	} else {
		rows(t.States)
		rows(t.Outputs)
		rows(t.Nodes)
	}
	return n
}

// SimStats counts the work a Simulator performed: time frames by
// evaluation mode, gate evaluations on the sparse path, and node value
// changes (events). The counters are plain fields maintained by the
// simulator's single goroutine; merge per-worker copies with Merge.
type SimStats struct {
	// EventFrames counts frames evaluated by the event-driven
	// sparse-delta evaluator (no baseline copy); FullFrames counts
	// frames where every gate was evaluated (fault-free runs, the
	// full-pass evaluator, and faulty frames without a baseline).
	EventFrames int64 `json:"event_frames"`
	FullFrames  int64 `json:"full_frames"`
	// EventGateEvals counts gate evaluations performed by the sparse
	// frames — the activity the single-fault-propagation speedup leaves.
	EventGateEvals int64 `json:"event_gate_evals"`
	// Events counts node value changes across all sparse frames: the
	// divergence the sparse evaluator actually tracks.
	Events int64 `json:"events"`
}

// Merge adds other into s.
func (s *SimStats) Merge(other SimStats) {
	s.EventFrames += other.EventFrames
	s.FullFrames += other.FullFrames
	s.EventGateEvals += other.EventGateEvals
	s.Events += other.Events
}

// Simulator runs three-valued simulation on one circuit. It is not safe
// for concurrent use; create one per goroutine (the compiled circuit
// behind it is shared read-only).
type Simulator struct {
	cc *cir.CC
	ev *cir.Evaluator

	// scratch buffer reused across frames
	vals []logic.Val
	// useFull selects the full-pass evaluator (NewFullPass).
	useFull bool

	// eev is the event-driven sparse-delta evaluator, created on first
	// use.
	eev *cir.EventEval

	// Optional per-frame distribution sinks for the event path (events
	// and gates visited per sparse frame); nil skips observation. The
	// batches keep the per-frame hot path free of atomics — callers
	// flush residuals via FlushFrameHists before reading the shared
	// histograms.
	histEvents *metrics.HistBatch
	histGates  *metrics.HistBatch

	// div lists the flip-flops whose faulty present state differs from
	// the fault-free one in the frame being simulated, apart from siteFF
	// (the fault-site seed covers it); nextDiv collects the next frame's
	// set while the frame is read. Only sparse frames maintain them.
	// siteFF is the flip-flop whose Q node carries the fault's stem
	// fault, or -1.
	div, nextDiv []int32
	siteFF       int32

	stats SimStats
}

// Stats returns the work counters accumulated since construction or the
// last ResetStats.
func (s *Simulator) Stats() SimStats { return s.stats }

// ResetStats zeroes the work counters.
func (s *Simulator) ResetStats() { s.stats = SimStats{} }

// New returns a Simulator for the circuit that evaluates faulty frames
// event-driven (delta) from the fault's divergence. The compiled IR is
// obtained from the process-wide cache (cir.For).
func New(c *netlist.Circuit) *Simulator {
	return NewCompiled(cir.For(c))
}

// NewCompiled returns a Simulator running on an already-compiled circuit,
// sharing cc read-only with any other evaluator.
func NewCompiled(cc *cir.CC) *Simulator {
	return &Simulator{
		cc:   cc,
		ev:   cc.NewEvaluator(),
		vals: make([]logic.Val, cc.NumNodes()),
	}
}

// SetFrameHists installs per-frame distribution sinks for the event
// path: events (node value changes) and gates visited per sparse frame.
// Pass nils to disable observation. Any residual batched observations
// for previously installed sinks are flushed first.
func (s *Simulator) SetFrameHists(events, gates *metrics.Histogram) {
	s.FlushFrameHists()
	s.histEvents = nil
	s.histGates = nil
	if events != nil {
		s.histEvents = events.NewBatch()
	}
	if gates != nil {
		s.histGates = gates.NewBatch()
	}
}

// FlushFrameHists pushes batched per-frame observations into the shared
// histograms installed by SetFrameHists. Call it before reading those
// histograms (end of a run, or a worker finishing its share).
func (s *Simulator) FlushFrameHists() {
	if s.histEvents != nil {
		s.histEvents.Flush()
	}
	if s.histGates != nil {
		s.histGates.Flush()
	}
}

// ensureEEV lazily builds the event evaluator (full-pass simulators
// never pay for it).
func (s *Simulator) ensureEEV() *cir.EventEval {
	if s.eev == nil {
		s.eev = s.cc.NewEventEval()
	}
	return s.eev
}

// NewFullPass returns a Simulator that evaluates every gate in every
// faulty frame with no event confinement: the straightforward reference
// evaluator the event-driven frames are tested against. Results are
// identical to New; only performance differs.
func NewFullPass(c *netlist.Circuit) *Simulator {
	s := New(c)
	s.useFull = true
	return s
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.cc.Net }

// Compiled returns the compiled IR the simulator runs on.
func (s *Simulator) Compiled() *cir.CC { return s.cc }

// EvalFrame computes the effective value of every node for one time frame
// of circuit c: pi are the primary-input values, ps the effective
// present-state values, f the injected fault (use nil for fault-free), and
// vals the output buffer with one entry per node.
//
// "Effective" means the value readers observe: a node with a stem fault
// holds its stuck value and the value its driver would compute is
// discarded, since no reader can observe it.
//
// It compiles (or re-uses the cached compile of) c and allocates a small
// evaluator per call; hot paths should hold a cir.Evaluator instead.
func EvalFrame(c *netlist.Circuit, pi Pattern, ps []logic.Val, f *fault.Fault, vals []logic.Val) {
	cir.For(c).NewEvaluator().EvalFrame(pi, ps, f, vals)
}

// initialStateInto writes the effective all-X initial state under fault f.
func initialStateInto(cc *cir.CC, f *fault.Fault, st []logic.Val) {
	for i, q := range cc.FFQ {
		st[i] = f.Observed(q, cc.FFInit[i])
	}
}

// initialState returns the effective all-X initial state under fault f.
func initialState(cc *cir.CC, f *fault.Fault) []logic.Val {
	st := make([]logic.Val, cc.NumFFs())
	initialStateInto(cc, f, st)
	return st
}

// nextStateInto extracts the effective next state from frame values.
func nextStateInto(cc *cir.CC, f *fault.Fault, vals, st []logic.Val) {
	for i, d := range cc.FFD {
		// vals[d] is already effective; the latched value becomes the
		// next present state, observed through any stem fault on Q.
		st[i] = f.Observed(cc.FFQ[i], vals[d])
	}
}

// nextState extracts the effective next state from frame values.
func nextState(cc *cir.CC, f *fault.Fault, vals []logic.Val) []logic.Val {
	st := make([]logic.Val, cc.NumFFs())
	nextStateInto(cc, f, vals, st)
	return st
}

// outputsInto extracts the observed primary outputs from frame values.
func outputsInto(cc *cir.CC, vals, out []logic.Val) {
	for i, id := range cc.Outputs {
		out[i] = vals[id]
	}
}

// outputsOf extracts the observed primary outputs from frame values.
func outputsOf(cc *cir.CC, vals []logic.Val) []logic.Val {
	out := make([]logic.Val, cc.NumOutputs())
	outputsInto(cc, vals, out)
	return out
}

// Run simulates the test sequence on the machine with fault f (nil for
// fault-free), returning the trace. keepNodes controls whether per-frame
// node values are retained (needed by the implication engine).
func (s *Simulator) Run(T Sequence, f *fault.Fault, keepNodes bool) (*Trace, error) {
	cc := s.cc
	if f == nil {
		f = &cir.NoFault
	}
	tr := &Trace{
		States:  make([][]logic.Val, 0, len(T)+1),
		Outputs: make([][]logic.Val, 0, len(T)),
	}
	if keepNodes {
		tr.Nodes = make([][]logic.Val, 0, len(T))
	}
	state := initialState(cc, f)
	tr.States = append(tr.States, state)
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return nil, fmt.Errorf("seqsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		s.ev.EvalFrame(pat, state, f, s.vals)
		s.stats.FullFrames++
		tr.Outputs = append(tr.Outputs, outputsOf(cc, s.vals))
		if keepNodes {
			frame := make([]logic.Val, len(s.vals))
			copy(frame, s.vals)
			tr.Nodes = append(tr.Nodes, frame)
		}
		state = nextState(cc, f, s.vals)
		tr.States = append(tr.States, state)
	}
	return tr, nil
}

// FaultFree simulates the fault-free machine.
func (s *Simulator) FaultFree(T Sequence) (*Trace, error) {
	return s.Run(T, nil, false)
}

// Detection identifies a single-observation-time detection: a time frame
// and output where the fault-free response is binary and the faulty
// response is the opposite binary value.
type Detection struct {
	Time   int
	Output int
}

// FirstDetection returns the earliest detection of bad against good, if any.
func FirstDetection(good, bad *Trace) (Detection, bool) {
	for u := 0; u < len(good.Outputs) && u < len(bad.Outputs); u++ {
		if j, ok := detectionIn(good.Outputs[u], bad.Outputs[u]); ok {
			return Detection{Time: u, Output: j}, true
		}
	}
	return Detection{}, false
}

// FaultResult summarizes conventional serial simulation of one fault.
type FaultResult struct {
	Fault    fault.Fault
	Detected bool
	At       Detection
}

// RunFaults serially simulates every fault in the list against the
// fault-free trace good, dropping each fault at its first detection.
func (s *Simulator) RunFaults(T Sequence, good *Trace, faults []fault.Fault) ([]FaultResult, error) {
	results := make([]FaultResult, len(faults))
	tr := NewTrace(s.cc.Net, len(T), false)
	for i, f := range faults {
		at, detected, err := s.RunFaultInto(tr, T, good, f, false)
		if err != nil {
			return nil, err
		}
		results[i] = FaultResult{Fault: f, Detected: detected, At: at}
	}
	return results, nil
}

// detectionIn returns the lowest output position where the faulty
// response b holds the binary opposite of a binary fault-free response g.
func detectionIn(g, b []logic.Val) (int, bool) {
	for j := range g {
		if g[j].IsBinary() && b[j].IsBinary() && g[j] != b[j] {
			return j, true
		}
	}
	return 0, false
}

// RunFault simulates one fault against the fault-free trace good, using
// event-driven propagation of the fault's divergence when good retains
// node values. Simulation stops at the first detection (the fault is
// dropped); the returned trace is then partial and detected is true.
// When no detection occurs, the complete faulty trace is returned;
// keepNodes controls whether it retains per-frame node values (needed by
// the MOT implication engine).
func (s *Simulator) RunFault(T Sequence, good *Trace, f fault.Fault, keepNodes bool) (tr *Trace, at Detection, detected bool, err error) {
	tr = NewTrace(s.cc.Net, len(T), keepNodes)
	if at, detected, err = s.RunFaultInto(tr, T, good, f, keepNodes); err != nil {
		return nil, Detection{}, false, err
	}
	return tr, at, detected, nil
}

// RunFaultInto is RunFault writing into a preallocated trace (see
// NewTrace), so steady-state fault simulation performs no per-fault
// allocation. tr's row storage is reused: the trace contents are valid
// only until the next RunFaultInto call with the same trace. tr must have
// been built by NewTrace for at least len(T) frames, with node storage
// when keepNodes is set.
func (s *Simulator) RunFaultInto(tr *Trace, T Sequence, good *Trace, f fault.Fault, keepNodes bool) (at Detection, detected bool, err error) {
	cc := s.cc
	if len(tr.allStates) < len(T)+1 || (keepNodes && len(tr.allNodes) < len(T)) {
		return Detection{}, false, fmt.Errorf("seqsim: trace not preallocated for %d frames (keepNodes=%v)",
			len(T), keepNodes)
	}
	tr.States = tr.allStates[:1]
	tr.Outputs = tr.allOutputs[:0]
	tr.Nodes = nil
	if keepNodes {
		tr.Nodes = tr.allNodes[:0]
	}
	s.beginFault(&f, tr.States[0])
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return Detection{}, false, fmt.Errorf("seqsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		tr.Outputs = tr.allOutputs[:u+1]
		var nodes []logic.Val
		if keepNodes {
			tr.Nodes = tr.allNodes[:u+1]
			nodes = tr.Nodes[u]
		}
		tr.States = tr.allStates[:u+2]
		if d, ok := s.faultyFrame(pat, tr.States[u], good, u, &f, tr.Outputs[u], tr.States[u+1], nodes); ok {
			return d, true, nil
		}
	}
	return Detection{}, false, nil
}

// beginFault writes f's effective initial state into st and sets up the
// per-fault divergence state. The faulty initial state differs from the
// fault-free one only at the flip-flop of a Q-node stem fault, which the
// fault-site seed covers, so the divergence set starts empty.
func (s *Simulator) beginFault(f *fault.Fault, st []logic.Val) {
	cc := s.cc
	initialStateInto(cc, f, st)
	s.siteFF = -1
	if f.IsStem() && f.Node != netlist.NoNode {
		s.siteFF = cc.FFOf[f.Node]
	}
	s.div = s.div[:0]
}

// faultyFrame simulates faulty frame u from the effective present state
// ps, writing the observed outputs into out, the next state into next
// and, when nodes is non-nil, every node's value into nodes. It reports
// the frame's detection, if any. With the full-pass evaluator, or
// without fault-free node values, the frame is a full EvalFrame into
// s.vals; otherwise it is an event-driven sparse overlay on the
// fault-free frame (evalSparse, readSparse).
func (s *Simulator) faultyFrame(pat Pattern, ps []logic.Val, good *Trace, u int, f *fault.Fault, out, next, nodes []logic.Val) (Detection, bool) {
	if s.useFull || good.Nodes == nil {
		s.ev.EvalFrame(pat, ps, f, s.vals)
		s.stats.FullFrames++
		outputsInto(s.cc, s.vals, out)
		if nodes != nil {
			copy(nodes, s.vals)
		}
		nextStateInto(s.cc, f, s.vals, next)
		j, ok := detectionIn(good.Outputs[u], out)
		return Detection{Time: u, Output: j}, ok
	}
	s.evalSparse(ps, good.Nodes[u], f)
	if nodes != nil {
		copy(nodes, good.Nodes[u])
		s.eev.MaterializeInto(nodes)
	}
	return s.readSparse(good, u, f, out, next)
}

// evalSparse evaluates a faulty frame as a sparse overlay over the
// fault-free frame goodVals, on the whole-circuit position schedule, seeded with
// the divergent flip-flops (s.div) and the fault site. Every other
// flip-flop holds its fault-free value and the pattern is the one the
// baseline was simulated with, so no other seed could change a value.
// The frame's values stay in the overlay; readSparse patches them over
// the fault-free rows.
func (s *Simulator) evalSparse(ps, goodVals []logic.Val, f *fault.Fault) {
	cc := s.cc
	eev := s.ensureEEV()
	eev.BeginFrame(goodVals)
	for _, i := range s.div {
		eev.Set(cc.FFQ[i], ps[i])
	}
	s.seedFaultSiteEvent(eev, f)
	s.finishEventFrame(eev, f)
}

// readSparse reads sparse frame u in one walk over the nodes the faulty
// machine changed (eev.Touched): it patches them into the fault-free
// output row (out, through cc.OutPos) and the fault-free next state
// (next, through cc.DOf). Both maps are 1:1, since the netlist rejects
// duplicate outputs and a D node driving two flip-flops. A changed D
// node differs from its fault-free value, so its flip-flop joins the
// next frame's divergence set. The flip-flop of a Q-node stem fault is
// patched to the stuck value whatever its D node does. The detection
// reported is the one at the lowest output position, as a full scan of
// the outputs finds it.
func (s *Simulator) readSparse(good *Trace, u int, f *fault.Fault, out, next []logic.Val) (Detection, bool) {
	cc, eev := s.cc, s.eev
	g := good.Outputs[u]
	copy(out, g)
	copy(next, good.States[u+1])
	det := int32(-1)
	nd := s.nextDiv[:0]
	for _, n := range eev.Touched() {
		v := eev.Read(n)
		if j := cc.OutPos[n]; j >= 0 {
			out[j] = v
			if g[j].IsBinary() && v.IsBinary() && g[j] != v && (det < 0 || j < det) {
				det = j
			}
		}
		// A flip-flop other than the Q-site one latches its D node's value
		// unchanged.
		if i := cc.DOf[n]; i >= 0 && i != s.siteFF {
			next[i] = v
			nd = append(nd, i)
		}
	}
	if i := s.siteFF; i >= 0 {
		next[i] = f.Stuck
	}
	s.div, s.nextDiv = nd, s.div
	if det < 0 {
		return Detection{}, false
	}
	return Detection{Time: u, Output: int(det)}, true
}

// seedFaultSiteEvent seeds the event queue with the fault site: a stem
// fault forces its node's stuck value (its driver is never evaluated
// into the node); a branch fault re-evaluates the one gate that reads
// the stuck pin.
func (s *Simulator) seedFaultSiteEvent(eev *cir.EventEval, f *fault.Fault) {
	if f.Node == netlist.NoNode {
		return
	}
	if f.IsStem() {
		if v, ok := f.StuckNode(f.Node); ok {
			eev.Set(f.Node, v)
		}
	} else {
		eev.Enqueue(f.Gate)
	}
}

// finishEventFrame drains the event queue and accounts the frame.
func (s *Simulator) finishEventFrame(eev *cir.EventEval, f *fault.Fault) {
	ge := int64(eev.Drain(f))
	nEv := int64(len(eev.Touched()))
	s.stats.EventFrames++
	s.stats.EventGateEvals += ge
	s.stats.Events += nEv
	if s.histEvents != nil {
		s.histEvents.Observe(nEv)
	}
	if s.histGates != nil {
		s.histGates.Observe(ge)
	}
}

// FrameDelta computes the faulty values of one frame from a fault-free
// baseline of the same frame, by event-driven propagation of the
// differences (the present-state differences and the fault site) over
// the baseline. The returned slice is the simulator's scratch buffer,
// valid until the next call.
//
// Unlike the RunFault path, FrameDelta seeds every primary input and
// state variable: callers pass externally evolved states that may differ
// from the baseline anywhere, so no divergence set is known here.
func (s *Simulator) FrameDelta(pat Pattern, ps []logic.Val, goodVals []logic.Val, f *fault.Fault) []logic.Val {
	if f == nil {
		f = &cir.NoFault
	}
	cc := s.cc
	eev := s.ensureEEV()
	eev.BeginFrame(goodVals)
	for i, id := range cc.Inputs {
		eev.Set(id, f.Observed(id, pat[i]))
	}
	for i, q := range cc.FFQ {
		eev.Set(q, f.Observed(q, ps[i]))
	}
	s.seedFaultSiteEvent(eev, f)
	s.finishEventFrame(eev, f)
	copy(s.vals, goodVals)
	eev.MaterializeInto(s.vals)
	return s.vals
}
