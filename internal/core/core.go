package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/xtrace"
)

// FaultOutcome is the result of simulating one fault.
type FaultOutcome struct {
	Fault   fault.Fault
	Outcome Outcome
	// At is the conventional detection site when Outcome is
	// DetectedConventional.
	At seqsim.Detection
	// Counters holds the Table 3 effectiveness counters (zero unless the
	// expansion procedure ran).
	Counters Counters
	// Expansions is the number of sequence-duplicating (phase 2)
	// expansions performed.
	Expansions int
	// Sequences is the number of state sequences when expansion stopped.
	Sequences int
	// Pairs is the number of candidate (time unit, state variable) pairs
	// whose backward implications were collected.
	Pairs int
	// FailedConditionC reports that the fault was pruned by the necessary
	// condition (C) before any expansion work.
	FailedConditionC bool
	// ByIdentification reports that the fault was identified as detected
	// directly from the collected implication information (Section 3.2),
	// without expansion and resimulation.
	ByIdentification bool
}

// Simulator runs MOT fault simulation for one circuit and test sequence.
// It is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	c *netlist.Circuit
	// cc is the compiled circuit IR every engine in the pipeline runs on.
	// It is compiled once per circuit (NewSimulator times the compile)
	// and shared read-only by all RunParallel workers.
	cc      *cir.CC
	compile time.Duration
	cfg     Config
	T       seqsim.Sequence
	good    *seqsim.Trace
	sim     *seqsim.Simulator
	// pools holds this simulator's reusable frames, arenas and scratch
	// buffers (see pool.go). RunParallel workers each get a fresh
	// Simulator value, so pools are never shared between goroutines.
	pools simPools
	// stats accumulates this simulator's stage times and pool counters
	// (see stats.go); nil when Config.Metrics is off. Owned by this
	// simulator's goroutine — plain fields, no atomics.
	stats *runStats
	// hist is the run's shared per-fault histogram set (concurrency-safe;
	// RunParallel workers all point at the parent's). Nil when metrics
	// are off.
	hist *RunMetrics
	// lastStages is the stage-time breakdown of the most recent
	// SimulateFault call, consumed by the trace emitter.
	lastStages StageNS
	// lastResim summarizes the resimulation passes of the most recent
	// SimulateFault call (vector passes, frames, gate evaluations,
	// lanes packed), consumed by the trace emitter. Deterministic,
	// unlike lastStages.
	lastResim ResimTrace
	// lastEvents summarizes the step-0 frame-evaluation work of the most
	// recent SimulateFault call (frames, events, gate evaluations),
	// consumed by the trace emitter and span attributes. The summary is
	// byte-identical across worker counts.
	lastEvents SimTrace
	// tbuf/span carry the open span of the fault currently in
	// SimulateFault (see span.go); span is 0 — and the sub-span hooks
	// cost one comparison — when the fault is unsampled or tracing is
	// off.
	tbuf *xtrace.Buffer
	span xtrace.SpanID
}

// NewSimulator builds a simulator, running fault-free simulation of the
// test sequence once up front.
func NewSimulator(c *netlist.Circuit, T seqsim.Sequence, cfg Config) (*Simulator, error) {
	return NewSimulatorWarm(c, T, cfg, Warm{})
}

// Warm carries precomputed artifacts NewSimulatorWarm may reuse instead
// of rebuilding them — the cross-run memoization hook the service layer
// fills from its content-addressed cache. Both fields are optional;
// the zero Warm is a fully cold start.
type Warm struct {
	// CC is the compiled IR of the circuit (must have been compiled
	// from the same *netlist.Circuit passed to NewSimulatorWarm).
	CC *cir.CC
	// Good is the fault-free trace of the test sequence on the circuit,
	// with node values retained — exactly what Good() of a previous
	// simulator over the same (circuit, sequence) returns. The trace is
	// read-only to the simulator, so one trace may warm any number of
	// concurrent simulators.
	Good *seqsim.Trace
}

// NewSimulatorWarm is NewSimulator with warm-start reuse: a provided
// compiled IR skips the compile (and the process compile-cache lookup),
// and a provided fault-free trace skips the step-0 good-machine
// simulation entirely. Outcomes are byte-identical to a cold start;
// only Result.Stages.CompileTime and construction latency change.
func NewSimulatorWarm(c *netlist.Circuit, T seqsim.Sequence, cfg Config, w Warm) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cc := w.CC
	var compile time.Duration
	switch {
	case cc == nil:
		compileStart := time.Now()
		cc = cir.For(c)
		compile = time.Since(compileStart)
	case cc.Net != c:
		return nil, fmt.Errorf("core: warm CC was compiled from a different circuit")
	}
	sim := seqsim.NewCompiled(cc)
	good := w.Good
	switch {
	case good == nil:
		var err error
		if good, err = sim.Run(T, nil, true); err != nil {
			return nil, err
		}
	case good.Len() != len(T):
		return nil, fmt.Errorf("core: warm good trace covers %d frames, sequence has %d", good.Len(), len(T))
	case len(T) > 0 && good.Nodes == nil:
		return nil, fmt.Errorf("core: warm good trace has no node values (need keepNodes)")
	}
	s := &Simulator{c: c, cc: cc, compile: compile, cfg: cfg, T: T, good: good, sim: sim}
	if cfg.Metrics {
		s.stats = &runStats{}
	}
	return s, nil
}

// Good returns the fault-free trace. It is read-only to the simulator
// and safe to reuse as Warm.Good for later runs of the same circuit
// and sequence.
func (s *Simulator) Good() *seqsim.Trace { return s.good }

// CC returns the compiled circuit IR the simulator runs on, safe to
// reuse as Warm.CC for later runs of the same circuit.
func (s *Simulator) CC() *cir.CC { return s.cc }

// Config returns the active configuration.
func (s *Simulator) Config() Config { return s.cfg }

// svAssign is one implied state-variable value: flip-flop j takes value v.
type svAssign struct {
	j int
	v logic.Val
}

// pairInfo is the information collected for one candidate pair (u, i):
// expanding present-state variable y_i at time unit u (Section 3.1).
type pairInfo struct {
	u, i   int
	conf   [2]bool
	detect [2]bool
	// extra[a] lists the state variables at time u that become specified
	// when y_i is set to a — including (i, a) itself. Only meaningful
	// when neither conf[a] nor detect[a] holds.
	extra [2][]svAssign
	// sv is the union of state-variable indices appearing in extra[0] and
	// extra[1] — the paper's sv(u, i) used by the expansion constraint.
	sv []int
}

// sideInfo classifies side a of a pair.
func (p *pairInfo) resolved(a int) bool { return p.conf[a] || p.detect[a] }

// counters computes the Table 3 counter increments for selecting p.
func (p *pairInfo) counters() Counters {
	var c Counters
	anyResolved := false
	for a := 0; a < 2; a++ {
		switch {
		case p.detect[a]:
			c.Det++
			c.Extra += len(p.extra[1-a])
			anyResolved = true
		case p.conf[a]:
			c.Conf++
			c.Extra += len(p.extra[1-a])
			anyResolved = true
		}
	}
	if !anyResolved {
		c.Extra += len(p.extra[0]) + len(p.extra[1])
	}
	return c
}

// profile computes N_sv(u) for u in [0, L] and N_out(u) for u in [0, L-1]
// over the faulty trace: N_sv counts unspecified faulty state variables at
// time u; N_out counts pairs (u' >= u, o) where output o is specified in
// the fault-free circuit and unspecified in the faulty circuit.
func (s *Simulator) profile(bad *seqsim.Trace) (nsv, nout []int) {
	L := len(s.T)
	nsv = make([]int, L+1)
	for u := 0; u <= L; u++ {
		nsv[u] = logic.CountX(bad.States[u])
	}
	nout = make([]int, L)
	suffix := 0
	for u := L - 1; u >= 0; u-- {
		g, b := s.good.Outputs[u], bad.Outputs[u]
		for j := range g {
			if g[j].IsBinary() && b[j] == logic.X {
				suffix++
			}
		}
		nout[u] = suffix
	}
	return nsv, nout
}

// conditionC checks the necessary condition (C): some time unit
// 0 <= u < L has N_sv(u) > 0 and N_out(u) > 0.
func conditionC(nsv, nout []int) bool {
	for u := range nout {
		if nsv[u] > 0 && nout[u] > 0 {
			return true
		}
	}
	return false
}

// SimulateFault runs the full per-fault pipeline. With Config.Metrics
// it additionally accumulates the per-stage breakdown and per-fault
// histograms (see Stages and RunMetrics); outcomes are identical either
// way.
func (s *Simulator) SimulateFault(f fault.Fault) (FaultOutcome, error) {
	st := s.stats
	if st == nil {
		return s.simulateFault(f)
	}
	st.motFaults++
	before := *st
	start := time.Now()
	out, err := s.simulateFault(f)
	total := int64(time.Since(start))
	st.times.Total += total
	d := st.times.sub(before.times)
	d.Total = total
	s.lastStages = d
	if err == nil && s.hist != nil {
		cone := int64(s.sim.ConeSize())
		s.hist.observeFault(&out, total, cone)
		if s.span != 0 {
			// The fault is span-sampled: link its bucket in each histogram
			// back to the fault and the span via OpenMetrics exemplars.
			s.hist.exemplarFault(&out, total, cone, f.Name(s.c), fmt.Sprintf("%016x", uint64(s.span)))
		}
	}
	return out, err
}

// simulateFault is the pipeline body; stage boundaries tick the stats
// accumulator (a nil accumulator costs only the branch).
func (s *Simulator) simulateFault(f fault.Fault) (FaultOutcome, error) {
	out := FaultOutcome{Fault: f}
	s.lastResim = ResimTrace{}
	st := s.stats
	var last time.Time
	if st != nil {
		last = time.Now()
	}

	// Step 0: conventional fault simulation with fault dropping.
	simBefore := s.sim.Stats()
	bad, at, detected, err := s.runBad(f)
	s.lastEvents = simTraceDelta(simBefore, s.sim.Stats())
	if err != nil {
		return out, err
	}
	if detected {
		st.tick(&last, stageStep0)
		out.Outcome = DetectedConventional
		out.At = at
		return out, nil
	}

	// Necessary condition (C).
	nsv, nout := s.profile(bad)
	if !conditionC(nsv, nout) {
		st.tick(&last, stageStep0)
		out.FailedConditionC = true
		return out, nil
	}
	st.tick(&last, stageStep0)

	// Section 3.1: collect backward-implication information per pair.
	pairs := s.collectPairs(&f, bad, nout)
	out.Pairs = len(pairs)

	// Section 3.2: identify faults detected directly from the collected
	// information.
	if s.cfg.UseBackwardImplications {
		for k := range pairs {
			p := &pairs[k]
			if (p.detect[0] && p.resolved(1)) || (p.detect[1] && p.resolved(0)) {
				st.tick(&last, stageCollect)
				out.Outcome = DetectedMOT
				out.ByIdentification = true
				out.Counters.add(p.counters())
				out.Sequences = 1
				return out, nil
			}
		}
	}
	st.tick(&last, stageCollect)
	if s.cfg.IdentificationOnly {
		// Low-complexity mode (after [6]): no expansion, no resimulation.
		return out, nil
	}

	// Section 3.3: state expansion (Procedure 2).
	ph := s.beginPhase("expand", 0)
	x := s.expand(pairs, bad, nsv, nout, &out)
	s.endPhase(ph)
	st.tick(&last, stageExpand)

	// Section 3.4: resimulation after expansion.
	out.Sequences = x.lanes()
	ph = s.beginPhase("resim", 0)
	detected = s.resimulate(&f, bad, x)
	s.endPhase(ph)
	st.tick(&last, stageResim)
	if detected {
		out.Outcome = DetectedMOT
		return out, nil
	}

	// Portfolio retry: the paper observes that every fault detected by
	// the [4] procedure is also detected by the proposed procedure. The
	// selection heuristics do not guarantee this per fault (phase 1
	// forcing and the larger sv(u, i) sets steer phase 2 down a different
	// expansion path), so when the proposed expansion fails we retry with
	// the baseline's trivial expansion under the same budget, making the
	// domination structural.
	if s.cfg.UseBackwardImplications {
		var retry FaultOutcome
		ph = s.beginPhase("expand", 1)
		x = s.expand(s.trivialPairs(bad, nout), bad, nsv, nout, &retry)
		s.endPhase(ph)
		st.tick(&last, stageExpand)
		ph = s.beginPhase("resim", 1)
		detected = s.resimulate(&f, bad, x)
		s.endPhase(ph)
		st.tick(&last, stageResim)
		if detected {
			out.Outcome = DetectedMOT
			out.Expansions += retry.Expansions
			out.Counters.add(retry.Counters)
			out.Sequences = x.lanes()
		}
	}
	return out, nil
}

// collectPairs gathers pairInfo for every candidate (u, i): time units
// 0 < u < L with a state variable y_i unspecified at u and usefully
// unspecified outputs at u-1 or later, plus the trivial u = 0 entries
// (no backward implication possible there).
//
// With backward implications disabled (the [4] baseline), every pair is
// trivial: expansion specifies exactly the selected variable.
//
// Under the paper's schedule (two-pass, one time unit of backward
// implication) every time unit's assertions run in lane passes
// (collectLanes); the Fixpoint schedule and BackwardDepth > 1 run one
// serial frame per side.
//
// The returned slice and the slices inside each pairInfo are backed by
// per-simulator arenas truncated at the next collectPairs call; they stay
// valid for the remainder of this fault's pipeline only.
func (s *Simulator) collectPairs(f *fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
	return s.collectPairsPooled(f, bad, nout, s.lanesCollect())
}

// collectPairsPooled is collectPairs on the pooled path; lanes selects
// lane passes over serial frames for the implication pairs.
func (s *Simulator) collectPairsPooled(f *fault.Fault, bad *seqsim.Trace, nout []int, lanes bool) []pairInfo {
	L := len(s.T)
	nFF := s.c.NumFFs()
	s.resetCollect()
	pairs := s.pools.pairs
	capReached := func() bool {
		return s.cfg.MaxPairs > 0 && len(pairs) >= s.cfg.MaxPairs
	}

	// u = 0: expansion of the initial state. conf = detect = 0 and
	// extra(0, i, a) = {(i, a)} by definition (Section 3.1).
	if nout[0] > 0 {
		for i := 0; i < nFF; i++ {
			if bad.States[0][i] != logic.X || capReached() {
				continue
			}
			pairs = append(pairs, s.trivialPair(0, i))
		}
	}
	for u := 1; u < L; u++ {
		if nout[u-1] == 0 || capReached() {
			break // nout is non-increasing: later units are useless too
		}
		if lanes {
			pairs = s.collectLanes(f, bad, u, pairs)
			continue
		}
		// One pooled frame per time unit: it is built from bad.Nodes[u-1]
		// once and restored by a trail undo after each side of each pair.
		var fr *implic.Frame
		for i := 0; i < nFF; i++ {
			if bad.States[u][i] != logic.X || capReached() {
				continue
			}
			if !s.cfg.UseBackwardImplications {
				pairs = append(pairs, s.trivialPair(u, i))
				continue
			}
			if fr == nil {
				fr = s.pairFrame(f, bad.Nodes[u-1])
			}
			pairs = append(pairs, s.collectOneInto(fr, f, bad, u, i))
		}
	}
	s.pools.pairs = pairs
	if st := s.stats; st != nil {
		st.pool.SVArenaPeak = max64(st.pool.SVArenaPeak, int64(len(s.pools.svArena)))
		st.pool.SVIdxArenaPeak = max64(st.pool.SVIdxArenaPeak, int64(len(s.pools.svIdxArena)))
	}
	return pairs
}

// trivialPairs enumerates trivial (single-variable) pairs for every
// candidate (u, i), as the [4] baseline does; used as the phase 2
// fallback when every collected pair is blocked by the expandability
// constraint, and by the portfolio retry. The result is reused by the
// next call. expand's fallback may recompute it while the retry's own
// trivial pairs are in use; the list is a function of (bad, nout), so
// that rewrites identical values.
func (s *Simulator) trivialPairs(bad *seqsim.Trace, nout []int) []pairInfo {
	out := s.pools.trivialPairs[:0]
fill:
	for u := 0; u < len(s.T) && nout[u] > 0; u++ { // nout is non-increasing
		for i := 0; i < s.c.NumFFs(); i++ {
			if bad.States[u][i] != logic.X {
				continue
			}
			if s.cfg.MaxPairs > 0 && len(out) >= s.cfg.MaxPairs {
				break fill
			}
			out = append(out, s.trivialPair(u, i))
		}
	}
	s.pools.trivialPairs = out
	return out
}

// trivialPair is the pair used at u = 0 and throughout the [4]
// baseline: extra(u, i, a) = {(i, a)} and sv(u, i) = {i}. Its slices
// come from a per-simulator table built once, so every trivial pair of
// flip-flop i shares them; nothing mutates a pair after creation.
func (s *Simulator) trivialPair(u, i int) pairInfo {
	t := &s.pools.trivial
	if nFF := s.c.NumFFs(); len(t.sv) != nFF {
		t.zero, t.one, t.sv = make([]svAssign, nFF), make([]svAssign, nFF), make([]int, nFF)
		for j := range t.sv {
			t.zero[j], t.one[j], t.sv[j] = svAssign{j: j, v: logic.Zero}, svAssign{j: j, v: logic.One}, j
		}
	}
	return pairInfo{
		u: u, i: i,
		extra: [2][]svAssign{t.zero[i : i+1 : i+1], t.one[i : i+1 : i+1]},
		sv:    t.sv[i : i+1 : i+1],
	}
}

// collectOneInto performs backward implication of y_i at time u for
// both values, recording the first applicable result: conflict,
// detection, or the extra specified state variables (Section 3.1). fr
// is a caller-provided frame already reset to bad.Nodes[u-1]: each side
// assigns y_i = alpha, implies, inspects, and restores the frame with
// an O(changed) trail undo, so the same frame serves every pair at time
// u without re-copying the base assignment.
func (s *Simulator) collectOneInto(fr *implic.Frame, f *fault.Fault, bad *seqsim.Trace, u, i int) pairInfo {
	p := pairInfo{u: u, i: i}
	s.svReset()
	s.svAdd(i)
	for a := 0; a < 2; a++ {
		alpha := logic.Val(a)
		mark := fr.Mark()
		ok := fr.AssignNextState(i, alpha) && s.imply(fr)
		if !ok {
			p.conf[a] = true
			fr.UndoTo(mark)
			continue
		}
		if s.frameDetects(fr, u-1) {
			p.detect[a] = true
			fr.UndoTo(mark)
			continue
		}
		// Deeper backward implication (extension; BackwardDepth > 1):
		// chase newly specified present-state variables into earlier
		// frames, looking for conflicts and detections only.
		if s.cfg.BackwardDepth > 1 {
			switch s.deepBackward(f, bad, fr, u-1, s.cfg.BackwardDepth-1) {
			case deepConflict:
				p.conf[a] = true
				fr.UndoTo(mark)
				continue
			case deepDetect:
				p.detect[a] = true
				fr.UndoTo(mark)
				continue
			}
		}
		// Record newly specified state variables at time u.
		extra := s.pools.extraScratch[:0]
		for j := 0; j < s.c.NumFFs(); j++ {
			if bad.States[u][j] != logic.X {
				continue
			}
			if v := fr.NextState(j); v.IsBinary() {
				extra = append(extra, svAssign{j: j, v: v})
				s.svAdd(j)
			}
		}
		s.pools.extraScratch = extra
		p.extra[a] = s.internExtra(extra)
		fr.UndoTo(mark)
	}
	p.sv = s.svTake()
	return p
}

// imply runs the configured implication schedule on a serial frame.
// With metrics on, calls are counted and timed.
func (s *Simulator) imply(fr *implic.Frame) bool {
	st := s.stats
	if st == nil {
		return s.implySchedule(fr)
	}
	st.implyCalls++
	start := time.Now()
	ok := s.implySchedule(fr)
	st.times.Imply += int64(time.Since(start))
	return ok
}

// implySchedule runs the configured schedule on fr.
func (s *Simulator) implySchedule(fr *implic.Frame) bool {
	if s.cfg.Schedule == Fixpoint {
		return fr.ImplyFixpoint(s.cfg.FixpointRounds)
	}
	return fr.ImplyTwoPass()
}

// frameDetects reports whether the frame's outputs contradict the
// fault-free outputs at time unit u.
func (s *Simulator) frameDetects(fr *implic.Frame, u int) bool {
	g := s.good.Outputs[u]
	for j := range g {
		if v := fr.Output(j); v.IsBinary() && g[j].IsBinary() && v != g[j] {
			return true
		}
	}
	return false
}

// deepBackward outcome codes.
type deepResult uint8

const (
	deepNothing deepResult = iota
	deepConflict
	deepDetect
)

// deepBackward chases present-state variables newly specified at frame u
// into frame u-1, asserting the corresponding next-state variables there
// and running implications, for up to depth further time units. Frames
// come from a per-simulator pool indexed by chase level; the newly buffer
// is safe to reuse across levels because each level consumes it fully
// before the next level truncates it.
func (s *Simulator) deepBackward(f *fault.Fault, bad *seqsim.Trace, fr *implic.Frame, u, depth int) deepResult {
	for level := 0; depth > 0 && u > 0; level++ {
		newly := s.pools.deepNewly[:0]
		for j := 0; j < s.c.NumFFs(); j++ {
			if bad.States[u][j] != logic.X {
				continue
			}
			if v := fr.PresentState(j); v.IsBinary() {
				newly = append(newly, svAssign{j: j, v: v})
			}
		}
		s.pools.deepNewly = newly
		if len(newly) == 0 {
			return deepNothing
		}
		prev := s.deepFrame(level, f, bad.Nodes[u-1])
		for _, a := range newly {
			if !prev.AssignNextState(a.j, a.v) {
				return deepConflict
			}
		}
		if !s.imply(prev) {
			return deepConflict
		}
		if s.frameDetects(prev, u-1) {
			return deepDetect
		}
		fr = prev
		u--
		depth--
	}
	return deepNothing
}

// expStep is one phase-2 step of Procedure 2 (steps 5-9): every
// sequence splits at time unit u, the original taking extra[0] and its
// duplicate extra[1].
type expStep struct {
	u     int
	extra [2][]svAssign
}

// expansion is the result of one expand call without the sequences it
// stands for: the base sequence s0 (the faulty trace plus phase 1's
// forced values) and the phase-2 steps. Sequence l of the 2^len(steps)
// takes side bit len(steps)-1-k of l at step k, the order Procedure 2's
// duplication loop appends them in. The step 3 check
// guarantees every cell a step writes is X in s0 and written by no
// other step, so sequence l holds s0's value or its chosen side's in
// every cell. marks lists the time units phase 1 or a step wrote, and
// seeds the state variables they assigned, in first-assignment order.
type expansion struct {
	s0    [][]logic.Val
	steps []expStep
	marks []bool
	seeds []int32
}

// lanes returns the number of sequences the expansion stands for.
func (x *expansion) lanes() int { return 1 << len(x.steps) }

// expand implements Procedure 2: phase 1 applies every single-sided pair
// (one value conflicted or detected) by forcing the surviving value's
// implications into the base sequence; phase 2 repeatedly selects the
// best remaining pair by the four criteria and duplicates every sequence
// until the N_STATES budget is reached. It returns the expansion, which
// records the duplications as steps instead of copying sequences; it
// is valid until the next expand call.
func (s *Simulator) expand(pairs []pairInfo, bad *seqsim.Trace, nsv, nout []int, out *FaultOutcome) *expansion {
	x := s.newExpansion(bad.States)
	s0 := x.s0

	// Phase 1 (Procedure 2, step 2).
	for k := range pairs {
		p := &pairs[k]
		var survivor int
		switch {
		case p.resolved(0) && p.resolved(1):
			// Both sides resolved: handled by identification (Section
			// 3.2) when a detection is present; two conflicts cannot
			// both arise from a consistent base. Nothing to force.
			continue
		case p.resolved(0):
			survivor = 1
		case p.resolved(1):
			survivor = 0
		default:
			continue
		}
		out.Counters.add(p.counters())
		for _, a := range p.extra[survivor] {
			if s0[p.u][a.j] == logic.X {
				s0[p.u][a.j] = a.v
			}
			s.seedAdd(x, a.j)
		}
		x.marks[p.u] = true
	}

	// Phase 2 (Procedure 2, steps 3-10). When backward implications are
	// enabled and the collected pairs are exhausted (their sv(u, i) sets
	// grow with the implied extras, so the step 3 constraint can starve
	// the budget), expansion falls back to trivial single-variable pairs,
	// exactly as the [4] baseline expands. This engineering completion
	// preserves the paper's observation that every fault detected by [4]
	// is also detected by the proposed procedure.
	var fallback []pairInfo
	for x.lanes() < s.cfg.NStates {
		best := s.selectPair(pairs, x, nsv, nout)
		if best < 0 && s.cfg.UseBackwardImplications {
			if fallback == nil {
				fallback = s.trivialPairs(bad, nout)
			}
			pairs = fallback
			best = s.selectPair(pairs, x, nsv, nout)
		}
		if best < 0 {
			break
		}
		p := &pairs[best]
		out.Counters.add(p.counters())
		out.Expansions++
		for _, j := range p.sv {
			s.seedAdd(x, j)
		}
		stamp := s.pools.assignStamp[p.u*s.c.NumFFs():]
		for a := range p.extra {
			for _, e := range p.extra[a] {
				stamp[e.j] = s.pools.seedGen
			}
		}
		x.marks[p.u] = true
		x.steps = append(x.steps, expStep{u: p.u, extra: p.extra})
	}
	if st := s.stats; st != nil {
		st.pool.SeqLivePeak = max64(st.pool.SeqLivePeak, int64(x.lanes()))
	}
	return x
}

// selectPair returns the index of the best expandable pair under the
// paper's constraint and criteria, or -1 when none qualifies.
//
// Constraint: every state variable in sv(u, i) is unspecified at time u in
// every sequence. Criteria, in order: (1) maximum N_out(u); (2) minimum
// N_sv(u); (3) maximum over pairs of min(|extra 0|, |extra 1|); (4)
// maximum of max(|extra 0|, |extra 1|). Remaining ties break toward the
// smallest (u, i) for determinism.
func (s *Simulator) selectPair(pairs []pairInfo, x *expansion, nsv, nout []int) int {
	best := -1
	var bNout, bNsv, bMin, bMax int
	for k := range pairs {
		p := &pairs[k]
		if p.resolved(0) || p.resolved(1) {
			continue // applied in phase 1
		}
		if nout[p.u] == 0 || nsv[p.u] == 0 {
			continue
		}
		ok := s.unassigned(p, x)
		if unassignedHook != nil {
			unassignedHook(p, x, ok)
		}
		if !ok {
			continue
		}
		e0, e1 := len(p.extra[0]), len(p.extra[1])
		pMin, pMax := e0, e1
		if pMin > pMax {
			pMin, pMax = pMax, pMin
		}
		if best < 0 {
			best, bNout, bNsv, bMin, bMax = k, nout[p.u], nsv[p.u], pMin, pMax
			continue
		}
		switch {
		case nout[p.u] != bNout:
			if nout[p.u] > bNout {
				best, bNout, bNsv, bMin, bMax = k, nout[p.u], nsv[p.u], pMin, pMax
			}
		case nsv[p.u] != bNsv:
			if nsv[p.u] < bNsv {
				best, bNout, bNsv, bMin, bMax = k, nout[p.u], nsv[p.u], pMin, pMax
			}
		case pMin != bMin:
			if pMin > bMin {
				best, bNout, bNsv, bMin, bMax = k, nout[p.u], nsv[p.u], pMin, pMax
			}
		case pMax != bMax:
			if pMax > bMax {
				best, bNout, bNsv, bMin, bMax = k, nout[p.u], nsv[p.u], pMin, pMax
			}
		}
	}
	return best
}

// unassigned is the Procedure 2 step 3 check for pair p in O(|sv|):
// every sequence descends from s0 and phase 2 writes only the pair
// extras at p.u, so a variable is specified at p.u in some sequence
// exactly when it is specified in s0 or an earlier step of this expand
// assigned it (assignStamp). A Simulator outside expand has an empty
// stamp set.
func (s *Simulator) unassigned(p *pairInfo, x *expansion) bool {
	row := x.s0[p.u]
	var stamp []int32
	if k := p.u * len(row); k < len(s.pools.assignStamp) {
		stamp = s.pools.assignStamp[k : k+len(row)]
	}
	for _, j := range p.sv {
		if row[j] != logic.X || (stamp != nil && stamp[j] == s.pools.seedGen) {
			return false
		}
	}
	return true
}

// unassignedHook, when set (tests only), observes every step 3 decision
// selectPair makes, so it can be checked against the full scan.
var unassignedHook func(p *pairInfo, x *expansion, got bool)

// Result aggregates a whole-fault-list run.
type Result struct {
	Circuit  string
	Total    int
	Conv     int
	MOT      int
	Outcomes []FaultOutcome
	// Sums of the Table 3 counters over MOT-detected faults.
	Sum Counters
	// PrunedConditionC counts undetected faults rejected by the necessary
	// condition (C) before any expansion work.
	PrunedConditionC int
	// Identified counts MOT detections established directly from the
	// collected implication information (Section 3.2), without expansion.
	Identified int
	// Expansions is the total number of sequence-duplicating expansions
	// across all faults.
	Expansions int
	// Pairs is the total number of candidate (time unit, state variable)
	// pairs collected across all faults.
	Pairs int
	// Sequences is the total number of state sequences at the point each
	// fault's expansion stopped, summed over all faults.
	Sequences int
	// Stages instruments the whole-list pipeline stages.
	Stages Stages
	// Metrics holds the run's per-fault histograms (pairs, expansions,
	// sequences at stop, per-fault wall time); nil when Config.Metrics
	// is off.
	Metrics *RunMetrics
	// Live is the shared live-snapshot sink this run published into
	// (Config.Live); nil when live stats were off. After the run
	// returns, its snapshot's scheduling-invariant counters equal the
	// merged Result/Stages values of every run published into it.
	Live *LiveStats
}

// Stages holds per-stage counters and wall-clock timings of a
// whole-fault-list run (Run or RunParallel). PrescreenTime and MOTTime
// are wall-clock; the per-fault breakdown below them is summed across
// RunParallel workers and is therefore CPU time (it can exceed MOTTime
// when workers > 1).
type Stages struct {
	// PrescreenPasses is the number of bit-parallel batches simulated by
	// the conventional prescreen (zero when Config.Prescreen is off).
	PrescreenPasses int
	// PrescreenDropped is the number of faults classified as
	// DetectedConventional directly from the prescreen lane results and
	// therefore never handed to the per-fault MOT pipeline.
	PrescreenDropped int
	// PrescreenPrunedC is the number of undetected faults the prescreen
	// lanes found failing condition (C); they are classified without
	// entering the per-fault MOT pipeline either.
	PrescreenPrunedC int
	// PrescreenFrames is the number of time frames the bit-parallel
	// prescreen actually simulated; PrescreenSavedFrames counts frames
	// skipped by its all-lanes-resolved early exit.
	PrescreenFrames      int64
	PrescreenSavedFrames int64
	// PrescreenGateEvals is the number of gates the prescreen evaluated
	// across those frames: only the gates a lane-divergent value reaches
	// in its event frames, every gate in its sweep frames.
	PrescreenGateEvals int64
	// PrescreenTime is the wall-clock duration of the prescreen stage.
	PrescreenTime time.Duration
	// CompileTime is the wall-clock duration of the circuit IR compile
	// (cir.Compile) performed by NewSimulator. The compile is cached
	// process-wide per circuit, so repeat runs on the same circuit report
	// only the cache lookup.
	CompileTime time.Duration
	// MOTTime is the wall-clock duration of the per-fault stage (the
	// serial step 0 for the faults entering it plus the MOT analysis
	// proper).
	MOTTime time.Duration

	// The fields below are populated only with Config.Metrics.

	// Step0Time covers the serial conventional resimulation of the
	// faults entering the pipeline plus the condition (C) profile;
	// CollectTime the pair collection of Section 3.1 including its
	// implication runs; ExpandTime Procedure 2; ResimTime the Section
	// 3.4 resimulation (both including the portfolio retry).
	Step0Time   time.Duration
	CollectTime time.Duration
	// ImplyTime is the implication share of CollectTime: the lane
	// implication passes plus the serial implication calls, timed
	// directly. It is a subset of CollectTime, not an additional stage.
	ImplyTime  time.Duration
	ExpandTime time.Duration
	ResimTime  time.Duration
	// ImplyCalls counts in-frame implication runs: one per asserted
	// side of every collected pair (a lane of a lane pass or a serial
	// call; a side whose assertion conflicts outright runs none), plus
	// deep-backward chasing.
	ImplyCalls int64
	// ImplyLaneEvals counts the gates the lane implication passes
	// evaluated, backward and forward closures together (only gates a
	// lane-divergent value reaches are evaluated).
	ImplyLaneEvals int64
	// ResimVectorPasses counts bit-parallel resimulation passes of up to
	// 64 lanes, portfolio retries included. ResimVectorFrames counts the
	// time frames those passes evaluated (frames with no active lane are
	// skipped and not counted), and ResimGateEvals the gates they
	// evaluated (only gates a lane-divergent value reaches are evaluated,
	// so a frame with no divergence counts none). Expansions of more
	// than 64 sequences run one pass per 64-lane chunk, stopping at the
	// first chunk that leaves a lane unresolved.
	ResimVectorPasses int64
	ResimVectorFrames int64
	ResimGateEvals    int64
	// MOTFaults counts the faults that entered the per-fault pipeline:
	// with the prescreen on, Total - PrescreenDropped - PrescreenPrunedC.
	MOTFaults int
	// Pool instruments the PR 2 pooling layer (reuse hits, slab
	// recycles, arena high-water marks).
	Pool PoolStats
	// Sim counts the serial simulator's work during step 0 (frames by
	// evaluation mode, sparse-frame gate evaluations).
	Sim seqsim.SimStats
}

// Detected returns the total number of detected faults.
func (r *Result) Detected() int { return r.Conv + r.MOT }

// AvgCounters returns the Table 3 averages over the faults detected by
// the MOT procedure beyond conventional simulation.
func (r *Result) AvgCounters() (det, conf, extra float64) {
	if r.MOT == 0 {
		return 0, 0, 0
	}
	n := float64(r.MOT)
	return float64(r.Sum.Det) / n, float64(r.Sum.Conf) / n, float64(r.Sum.Extra) / n
}

// Run simulates every fault in the list. The optional progress callback
// is invoked after each fault. With Config.Prescreen the whole list is
// first classified by batched bit-parallel simulation (conventional
// detection and condition (C)) and only the undetected faults passing
// (C) run the per-fault pipeline; outcomes are identical either way.
func (s *Simulator) Run(faults []fault.Fault, progress func(done, total int)) (*Result, error) {
	return s.RunContext(context.Background(), faults, progress)
}

// RunContext is Run with cancellation: the fault loop checks ctx before
// each fault and returns ctx.Err() once it is done or canceled. The
// prescreen stage runs to completion before the first check (its
// bit-parallel batches are short relative to the per-fault pipeline).
func (s *Simulator) RunContext(ctx context.Context, faults []fault.Fault, progress func(done, total int)) (*Result, error) {
	res := &Result{Circuit: s.c.Name, Total: len(faults)}
	res.Stages.CompileTime = s.compile
	res.Live = s.cfg.Live
	res.Outcomes = make([]FaultOutcome, 0, len(faults))
	s.beginRun(res)
	s.beginLive(len(faults))
	defer s.cfg.Live.endLive()
	sc := s.beginRunSpans(len(faults))
	pre, err := s.prescreen(faults, 1, res, sc)
	if err != nil {
		return nil, err
	}
	s.publishPrescreen(res, false)
	live := s.newLivePublisher()
	traceTimes := s.traceTimes(len(faults))
	traceResims := s.traceResims(len(faults))
	traceSims := s.traceSims(len(faults))
	motStart := time.Now()
	sc.beginStage("mot")
	ws := sc.worker(-1)
	for k, f := range faults {
		if err := ctx.Err(); err != nil {
			live.flush(s)
			return nil, err
		}
		o, settled := pre.outcome(k, f)
		entered := !settled
		if entered {
			ws.begin(s, k, f)
			if o, err = s.SimulateFault(f); err != nil {
				return nil, fmt.Errorf("core: fault %s: %w", f.Name(s.c), err)
			}
			ws.end(s, &o)
			if traceTimes != nil {
				traceTimes[k] = s.lastStages
			}
			if traceResims != nil {
				traceResims[k] = s.lastResim
			}
			if traceSims != nil {
				traceSims[k] = s.lastEvents
			}
		}
		live.observe(s, &o, entered)
		res.tally(o)
		if progress != nil {
			progress(k+1, len(faults))
		}
	}
	live.flush(s)
	ws.close()
	sc.endStage()
	s.sim.FlushFrameHists()
	res.Stages.MOTTime = time.Since(motStart)
	res.Stages.mergeStats(s.stats)
	if s.cfg.Metrics {
		res.Stages.Sim.Merge(s.sim.Stats())
	}
	sc.finish(res)
	if err := s.writeTrace(res, traceTimes, traceResims, traceSims); err != nil {
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	return res, nil
}

// tally folds one outcome into the aggregate.
func (r *Result) tally(o FaultOutcome) {
	switch o.Outcome {
	case DetectedConventional:
		r.Conv++
	case DetectedMOT:
		r.MOT++
		r.Sum.add(o.Counters)
		if o.ByIdentification {
			r.Identified++
		}
	default:
		if o.FailedConditionC {
			r.PrunedConditionC++
		}
	}
	r.Expansions += o.Expansions
	r.Pairs += o.Pairs
	r.Sequences += o.Sequences
	r.Outcomes = append(r.Outcomes, o)
}

// RunParallel simulates the fault list on `workers` goroutines. Each
// worker clones the simulator (sharing the immutable circuit, test
// sequence and fault-free trace); results are identical to Run and are
// returned in fault-list order. With Config.Prescreen the bit-parallel
// stage runs first (its batches spread over the same worker count) and
// only the faults it leaves unsettled are handed to the pool.
func (s *Simulator) RunParallel(faults []fault.Fault, workers int, progress func(done, total int)) (*Result, error) {
	return s.RunParallelContext(context.Background(), faults, workers, progress)
}

// RunParallelContext is RunParallel with cancellation: workers stop
// claiming faults once ctx is done and the run returns ctx.Err(). The
// prescreen stage runs to completion before the first check.
func (s *Simulator) RunParallelContext(ctx context.Context, faults []fault.Fault, workers int, progress func(done, total int)) (*Result, error) {
	if workers < 2 || len(faults) < 2 {
		return s.RunContext(ctx, faults, progress)
	}
	res := &Result{Circuit: s.c.Name, Total: len(faults)}
	res.Stages.CompileTime = s.compile
	res.Live = s.cfg.Live
	res.Outcomes = make([]FaultOutcome, 0, len(faults))
	s.beginRun(res)
	s.beginLive(len(faults))
	defer s.cfg.Live.endLive()
	sc := s.beginRunSpans(len(faults))
	pre, err := s.prescreen(faults, workers, res, sc)
	if err != nil {
		return nil, err
	}
	s.publishPrescreen(res, true)
	traceTimes := s.traceTimes(len(faults))
	traceResims := s.traceResims(len(faults))
	traceSims := s.traceSims(len(faults))
	motStart := time.Now()
	sc.beginStage("mot")
	outcomes := make([]FaultOutcome, len(faults))
	// todo lists the fault indices the prescreen did not settle: they need
	// the per-fault pipeline.
	var todo []int
	for k := range faults {
		if o, ok := pre.outcome(k, faults[k]); ok {
			outcomes[k] = o
			continue
		}
		todo = append(todo, k)
	}
	settled := len(faults) - len(todo)
	if progress != nil {
		for d := 1; d <= settled; d++ {
			progress(d, len(faults))
		}
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	nw := max(workers, 1)
	errs := make([]error, nw)
	// Workers are built up front so their per-worker instrumentation can
	// be merged into the run totals after the pool drains. Each worker
	// gets its own runStats (plain fields, single goroutine) and shares
	// the parent's concurrency-safe histograms.
	workerSims := make([]*Simulator, nw)
	for w := range workerSims {
		worker := &Simulator{
			c: s.c, cc: s.cc, compile: s.compile, cfg: s.cfg, T: s.T, good: s.good,
			sim:  seqsim.NewCompiled(s.cc),
			hist: s.hist,
		}
		if s.hist != nil {
			worker.sim.SetFrameHists(s.hist.EventsPerFrame, s.hist.GatesVisitedPerFrame)
		}
		if s.cfg.Metrics {
			worker.stats = &runStats{}
		}
		workerSims[w] = worker
	}
	var (
		nextIdx int64 = -1
		failed  atomic.Bool
		mu      sync.Mutex
		count   = settled
		wg      sync.WaitGroup
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := workerSims[w]
			live := worker.newLivePublisher()
			defer live.flush(worker)
			defer worker.sim.FlushFrameHists()
			ws := sc.worker(w)
			defer ws.close()
			for {
				t := int(atomic.AddInt64(&nextIdx, 1))
				if t >= len(todo) || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					failed.Store(true)
					atomic.StoreInt64(&nextIdx, int64(len(todo)))
					return
				}
				k := todo[t]
				ws.begin(worker, k, faults[k])
				o, err := worker.SimulateFault(faults[k])
				ws.end(worker, &o)
				if err != nil {
					errs[w] = fmt.Errorf("core: fault %s: %w", faults[k].Name(s.c), err)
					// Drain the pool promptly: flag the failure and push the
					// shared index past the end so no worker claims further
					// faults from the list.
					failed.Store(true)
					atomic.StoreInt64(&nextIdx, int64(len(todo)))
					return
				}
				live.observe(worker, &o, true)
				outcomes[k] = o
				if traceTimes != nil {
					// Distinct index per fault: no write races between workers.
					traceTimes[k] = worker.lastStages
				}
				if traceResims != nil {
					traceResims[k] = worker.lastResim
				}
				if traceSims != nil {
					traceSims[k] = worker.lastEvents
				}
				if progress != nil {
					mu.Lock()
					count++
					progress(count, len(faults))
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	sc.endStage()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, o := range outcomes {
		res.tally(o)
	}
	res.Stages.MOTTime = time.Since(motStart)
	for _, worker := range workerSims {
		res.Stages.mergeStats(worker.stats)
		if s.cfg.Metrics {
			res.Stages.Sim.Merge(worker.sim.Stats())
		}
	}
	sc.finish(res)
	if err := s.writeTrace(res, traceTimes, traceResims, traceSims); err != nil {
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	return res, nil
}
