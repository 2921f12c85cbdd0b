// Package seqsim implements conventional three-valued simulation of
// synchronous sequential circuits: fault-free simulation, serial stuck-at
// fault simulation with fault dropping, and detection checking under the
// single observation time approach.
//
// Simulation starts from the all-unspecified (X) initial state and applies
// one input pattern per time frame, exactly as in the fault simulators the
// paper builds on [1]. All evaluation runs on the compiled circuit IR
// (internal/cir); faulty simulation is confined to the fault's active
// cone — the sequential fanout closure of the fault site — so each faulty
// frame seeds and checks only the state variables and outputs the fault
// can influence.
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

	// event-driven sparse-delta evaluator state: eev is created on first
	// use; frameSparse reports that the most recent faulty frame lives
	// in eev's overlay instead of s.vals.
	eev         *cir.EventEval
	frameSparse bool

	// Optional per-frame distribution sinks for the event path (events
	// and gates visited per sparse frame); nil skips observation. The
	// batches keep the per-frame hot path free of atomics — callers
	// flush residuals via FlushFrameHists before reading the shared
	// histograms.
	histEvents *metrics.HistBatch
	histGates  *metrics.HistBatch

	// cone is the active cone of the fault most recently passed to
	// RunFault/RunFaultInto (unused by the full-pass evaluator), a
	// shared immutable cone from the compiled circuit's per-site cache.
	// coneFault/coneValid memoize the site it was looked up for: the MOT
	// pipeline re-runs the same fault many times (step0, portfolio
	// retries), so even the cache lookup is skipped on repeats.
	cone      *cir.Cone
	coneFault fault.Fault
	coneValid bool

	stats SimStats
}

// Stats returns the work counters accumulated since construction or the
// last ResetStats.
func (s *Simulator) Stats() SimStats { return s.stats }

// ResetStats zeroes the work counters.
func (s *Simulator) ResetStats() { s.stats = SimStats{} }

// New returns a Simulator for the circuit using event-driven (delta) frame
// evaluation confined to the fault's active cone for faulty frames. The
// compiled IR is obtained from the process-wide cache (cir.For).
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
		cone: cc.ConeOf(&cir.NoFault),
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
// faulty frame with no cone restriction: the straightforward reference
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

// ConeSize returns the number of gates in the active cone prepared by the
// most recent RunFault/RunFaultInto call (0 before the first call and for
// the full-pass evaluator).
func (s *Simulator) ConeSize() int { return s.cone.Size() }

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
		g, b := good.Outputs[u], bad.Outputs[u]
		for j := range g {
			if g[j].IsBinary() && b[j].IsBinary() && g[j] != b[j] {
				return Detection{Time: u, Output: j}, true
			}
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
	for i, f := range faults {
		_, at, detected, err := s.RunFault(T, good, f, false)
		if err != nil {
			return nil, err
		}
		results[i] = FaultResult{Fault: f, Detected: detected, At: at}
	}
	return results, nil
}

// prepareCone fills the active cone for f unless this is the full-pass
// (cone-free reference) evaluator. It reports whether the cone is in use.
func (s *Simulator) prepareCone(f *fault.Fault) bool {
	if s.useFull {
		return false
	}
	// The cone depends only on the fault site, so stuck-at-0 and
	// stuck-at-1 of the same site (adjacent in fault lists) share it.
	if s.coneValid && f.Node == s.coneFault.Node && f.Gate == s.coneFault.Gate {
		return true
	}
	s.cone = s.cc.ConeOf(f)
	s.coneFault, s.coneValid = *f, true
	return true
}

// checkDetection scans frame-u outputs in s.vals against the fault-free
// response. With an active cone only the cone's outputs are scanned —
// outputs outside the sequential fanout closure of the fault site cannot
// differ from the fault-free machine. Cone outputs are in ascending
// position order, so the first detection found is the same (Time, Output)
// the full scan would report.
func (s *Simulator) checkDetection(good *Trace, u int, coneActive bool) (Detection, bool) {
	g := good.Outputs[u]
	if s.frameSparse {
		for _, j := range s.cone.Outs {
			b := s.eev.Read(s.cc.Outputs[j])
			if g[j].IsBinary() && b.IsBinary() && g[j] != b {
				return Detection{Time: u, Output: int(j)}, true
			}
		}
		return Detection{}, false
	}
	if coneActive {
		for _, j := range s.cone.Outs {
			b := s.vals[s.cc.Outputs[j]]
			if g[j].IsBinary() && b.IsBinary() && g[j] != b {
				return Detection{Time: u, Output: int(j)}, true
			}
		}
		return Detection{}, false
	}
	for j, id := range s.cc.Outputs {
		b := s.vals[id]
		if g[j].IsBinary() && b.IsBinary() && g[j] != b {
			return Detection{Time: u, Output: j}, true
		}
	}
	return Detection{}, false
}

// RunFault simulates one fault against the fault-free trace good, using
// event-driven propagation confined to the fault's active cone when good
// retains node values. Simulation stops at the first detection (the fault
// is dropped); the returned trace is then partial and detected is true.
// When no detection occurs, the complete faulty trace is returned;
// keepNodes controls whether it retains per-frame node values (needed by
// the MOT implication engine).
func (s *Simulator) RunFault(T Sequence, good *Trace, f fault.Fault, keepNodes bool) (tr *Trace, at Detection, detected bool, err error) {
	cc := s.cc
	tr = &Trace{
		States:  make([][]logic.Val, 0, len(T)+1),
		Outputs: make([][]logic.Val, 0, len(T)),
	}
	if keepNodes {
		tr.Nodes = make([][]logic.Val, 0, len(T))
	}
	coneActive := s.prepareCone(&f)
	tr.States = append(tr.States, initialState(cc, &f))
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return nil, Detection{}, false, fmt.Errorf("seqsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		s.evalFaultyFrame(pat, tr.States[u], good, u, &f)
		out := make([]logic.Val, cc.NumOutputs())
		s.frameOutputsInto(good, u, out)
		tr.Outputs = append(tr.Outputs, out)
		if keepNodes {
			frame := make([]logic.Val, cc.NumNodes())
			s.frameNodesInto(good, u, frame)
			tr.Nodes = append(tr.Nodes, frame)
		}
		st := make([]logic.Val, cc.NumFFs())
		s.frameNextStateInto(good, u, &f, st)
		tr.States = append(tr.States, st)
		if d, ok := s.checkDetection(good, u, coneActive); ok {
			return tr, d, true, nil
		}
	}
	return tr, Detection{}, false, nil
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
	coneActive := s.prepareCone(&f)
	initialStateInto(cc, &f, tr.States[0])
	for u, pat := range T {
		if len(pat) != cc.NumInputs() {
			return Detection{}, false, fmt.Errorf("seqsim: pattern %d has %d values, circuit has %d inputs",
				u, len(pat), cc.NumInputs())
		}
		s.evalFaultyFrame(pat, tr.States[u], good, u, &f)
		tr.Outputs = tr.allOutputs[:u+1]
		s.frameOutputsInto(good, u, tr.Outputs[u])
		if keepNodes {
			tr.Nodes = tr.allNodes[:u+1]
			s.frameNodesInto(good, u, tr.Nodes[u])
		}
		tr.States = tr.allStates[:u+2]
		s.frameNextStateInto(good, u, &f, tr.States[u+1])
		if d, ok := s.checkDetection(good, u, coneActive); ok {
			return d, true, nil
		}
	}
	return Detection{}, false, nil
}

// evalFaultyFrame computes the faulty frame u values given the effective
// faulty present state ps. With the full-pass evaluator, or without
// fault-free node values, this is a full EvalFrame into s.vals;
// otherwise the frame is an event-driven sparse overlay on the
// fault-free frame (evalFrameEventCone).
func (s *Simulator) evalFaultyFrame(pat Pattern, ps []logic.Val, good *Trace, u int, f *fault.Fault) {
	s.frameSparse = false
	if s.useFull || good.Nodes == nil {
		s.ev.EvalFrame(pat, ps, f, s.vals)
		s.stats.FullFrames++
		return
	}
	s.evalFrameEventCone(ps, good.Nodes[u], f)
	s.frameSparse = true
}

// evalFrameEventCone evaluates the faulty frame as a sparse overlay
// over the fault-free frame, seeded from the active cone's
// present-state differences and the fault site, with no whole-circuit
// copy. Only the cone's flip-flops can carry a faulty present-state
// difference, and the pattern is the one the baseline was simulated
// with, so non-cone seeds would be no-ops and are skipped. The frame's
// values stay in the overlay (frameSparse); the read phase patches them
// over the fault-free rows on demand.
func (s *Simulator) evalFrameEventCone(ps []logic.Val, goodVals []logic.Val, f *fault.Fault) {
	cc := s.cc
	eev := s.ensureEEV()
	eev.BeginFrame(goodVals, s.cone.Sched())
	for _, i := range s.cone.FFs {
		q := cc.FFQ[i]
		eev.Set(q, f.Observed(q, ps[i]))
	}
	s.seedFaultSiteEvent(eev, f)
	s.finishEventFrame(eev, f)
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

// frameOutputsInto writes the faulty frame u's observed outputs into
// out. A sparse frame is read as the fault-free output row patched at
// the cone's output positions — the only outputs that can differ.
func (s *Simulator) frameOutputsInto(good *Trace, u int, out []logic.Val) {
	if !s.frameSparse {
		outputsInto(s.cc, s.vals, out)
		return
	}
	copy(out, good.Outputs[u])
	for _, j := range s.cone.Outs {
		out[j] = s.eev.Read(s.cc.Outputs[j])
	}
}

// frameNextStateInto writes the faulty frame u's next state into st. A
// sparse frame is read as the fault-free next state patched at the
// cone's flip-flops: a flip-flop outside the cone has its D node
// outside the cone (a cone D node pulls its Q node — hence the
// flip-flop — into the cone), and a stem fault on a Q node puts that
// flip-flop in the cone, so every divergent or fault-observed state
// variable is covered by cone.FFs.
func (s *Simulator) frameNextStateInto(good *Trace, u int, f *fault.Fault, st []logic.Val) {
	if !s.frameSparse {
		nextStateInto(s.cc, f, s.vals, st)
		return
	}
	cc := s.cc
	copy(st, good.States[u+1])
	for _, i := range s.cone.FFs {
		st[i] = f.Observed(cc.FFQ[i], s.eev.Read(cc.FFD[i]))
	}
}

// frameNodesInto writes the faulty frame u's dense node values into
// row: a baseline copy patched with the overlay for a sparse frame.
func (s *Simulator) frameNodesInto(good *Trace, u int, row []logic.Val) {
	if !s.frameSparse {
		copy(row, s.vals)
		return
	}
	copy(row, good.Nodes[u])
	s.eev.MaterializeInto(row)
}

// FrameDelta computes the faulty values of one frame from a fault-free
// baseline of the same frame, by event-driven propagation of the
// differences (the present-state differences and the fault site) over
// the baseline. The returned slice is the simulator's scratch buffer,
// valid until the next call.
//
// Unlike the RunFault path, FrameDelta seeds every primary input and
// state variable: callers pass externally evolved states that may differ
// from the baseline anywhere, so the active-cone invariant (differences
// only inside the fault's sequential fanout closure) does not hold here.
func (s *Simulator) FrameDelta(pat Pattern, ps []logic.Val, goodVals []logic.Val, f *fault.Fault) []logic.Val {
	if f == nil {
		f = &cir.NoFault
	}
	cc := s.cc
	eev := s.ensureEEV()
	eev.BeginFrame(goodVals, cc.FullSched())
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
	s.frameSparse = false
	return s.vals
}
