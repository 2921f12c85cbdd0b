package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cir"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/workpool"
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
	// memo is the fault-free lane memo of pair collection, built on
	// first use and shared read-only with every clone.
	memo *memoCell
	// pools holds this simulator's reusable frames, arenas and scratch
	// buffers (see pool.go). Each fault-loop worker owns one Simulator,
	// so pools are never shared between goroutines.
	pools simPools
	// hist is the run's shared per-fault histogram set (concurrency-safe;
	// every fault-loop worker points at the caller's). Nil when metrics
	// are off.
	hist *RunMetrics
	// rec is the record of the most recent SimulateFault call, written
	// by the pipeline's instrumentation sites and read by every
	// reporting sink (see faultRecord).
	rec faultRecord
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
	return &Simulator{c: c, cc: cc, compile: compile, cfg: cfg, T: T, good: good, sim: sim, memo: &memoCell{}}, nil
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

// SimulateFault runs the full per-fault pipeline and fills the
// simulator's faultRecord for it. With Config.Metrics the record
// additionally carries the stage times; outcomes are identical either
// way.
func (s *Simulator) SimulateFault(f fault.Fault) (FaultOutcome, error) {
	s.rec = faultRecord{}
	s.sim.ResetStats()
	var start time.Time
	if s.cfg.Metrics {
		start = time.Now()
	}
	out, err := s.simulateFault(f)
	if s.cfg.Metrics {
		s.rec.work.TotalNS = int64(time.Since(start))
	}
	st := s.sim.Stats()
	s.rec.work.EventFrames, s.rec.work.EventGateEvals, s.rec.work.Events = st.EventFrames, st.EventGateEvals, st.Events
	return out, err
}

// simulateFault is the pipeline body; stage boundaries tick the
// record's stage times (with metrics off, the ticks read no clock).
func (s *Simulator) simulateFault(f fault.Fault) (FaultOutcome, error) {
	out := FaultOutcome{Fault: f}
	var last time.Time
	if s.cfg.Metrics {
		last = time.Now()
	}
	w := &s.rec.work

	// Step 0: conventional fault simulation with fault dropping.
	bad, at, detected, err := s.runBad(f)
	if err != nil {
		return out, err
	}
	if detected {
		s.tick(&last, &w.Step0NS)
		out.Outcome = DetectedConventional
		out.At = at
		return out, nil
	}

	// Necessary condition (C).
	nsv, nout := s.profile(bad)
	if !conditionC(nsv, nout) {
		s.tick(&last, &w.Step0NS)
		out.FailedConditionC = true
		return out, nil
	}
	s.tick(&last, &w.Step0NS)

	// Section 3.1: collect backward-implication information per pair.
	pairs := s.collectPairs(&f, bad, nout)
	out.Pairs = len(pairs)

	// Section 3.2: identify faults detected directly from the collected
	// information.
	if s.cfg.UseBackwardImplications {
		for k := range pairs {
			p := &pairs[k]
			if (p.detect[0] && p.resolved(1)) || (p.detect[1] && p.resolved(0)) {
				s.tick(&last, &w.CollectNS)
				out.Outcome = DetectedMOT
				out.ByIdentification = true
				out.Counters.add(p.counters())
				out.Sequences = 1
				return out, nil
			}
		}
	}
	s.tick(&last, &w.CollectNS)
	if s.cfg.IdentificationOnly {
		// Low-complexity mode (after [6]): no expansion, no resimulation.
		return out, nil
	}

	// Section 3.3: state expansion (Procedure 2).
	ph := s.beginPhase("expand", 0)
	x := s.expand(pairs, bad, nsv, nout, &out)
	s.endPhase(ph)
	s.tick(&last, &w.ExpandNS)

	// Section 3.4: resimulation after expansion.
	out.Sequences = x.lanes()
	ph = s.beginPhase("resim", 0)
	detected = s.resimulate(&f, bad, x, nout)
	s.endPhase(ph)
	s.tick(&last, &w.ResimNS)
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
		// The retry expands into x's pooled storage: keep the proposed
		// steps to compare with its own.
		s.pools.steps = append(s.pools.steps[:0], x.steps...)
		var retry FaultOutcome
		ph = s.beginPhase("expand", 1)
		x = s.expand(nil, bad, nsv, nout, &retry)
		s.endPhase(ph)
		s.tick(&last, &w.ExpandNS)
		if sameSteps(x.steps, s.pools.steps) {
			// With the proposed steps, every lane of the proposed
			// expansion refines the retry's, so the retry fails too
			// (DESIGN.md §26).
			w.ResimRetriesSkipped++
			if retrySkipHook != nil {
				retrySkipHook(s, &f, bad, x, nout)
			}
			return out, nil
		}
		ph = s.beginPhase("resim", 1)
		detected = s.resimulate(&f, bad, x, nout)
		s.endPhase(ph)
		s.tick(&last, &w.ResimNS)
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
// trivial: expansion specifies exactly the selected variable. Otherwise
// every time unit's candidates are implied in lane passes
// (collectLanes), under the configured schedule; with one time unit of
// backward implication the fault-free lane memo serves the candidates
// the fault's divergence does not reach.
//
// The returned slice and the slices inside each pairInfo are backed by
// per-simulator arenas truncated at the next collectPairs call; they stay
// valid for the remainder of this fault's pipeline only.
func (s *Simulator) collectPairs(f *fault.Fault, bad *seqsim.Trace, nout []int) []pairInfo {
	return s.collectPairsLanes(f, bad, nout, s.cfg.BackwardDepth <= 1)
}

// collectPairsLanes is collectPairs with the memo on or off.
func (s *Simulator) collectPairsLanes(f *fault.Fault, bad *seqsim.Trace, nout []int, memo bool) []pairInfo {
	s.resetCollect()
	pairs := s.pools.pairs
	capReached := func() bool {
		return s.cfg.MaxPairs > 0 && len(pairs) >= s.cfg.MaxPairs
	}
	// u = 0 (the initial state) takes trivial pairs: conf = detect = 0
	// and extra(0, i, a) = {(i, a)} by definition (Section 3.1).
	for u := 0; u < len(s.T); u++ {
		if nout[max(u-1, 0)] == 0 || capReached() {
			break // nout is non-increasing: later units are useless too
		}
		if u > 0 && s.cfg.UseBackwardImplications {
			pairs = s.collectLanes(f, bad, u, pairs, memo)
			continue
		}
		for i, v := range bad.States[u] {
			if v == logic.X && !capReached() {
				pairs = append(pairs, s.trivialPair(u, i))
			}
		}
	}
	s.pools.pairs = pairs
	return pairs
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
// is valid until the next expand call. With backward implications on,
// expand(nil, ...) is the [4] baseline's trivial expansion the
// portfolio retry runs: every step comes from the trivial fallback.
func (s *Simulator) expand(pairs []pairInfo, bad *seqsim.Trace, nsv, nout []int, out *FaultOutcome) *expansion {
	x := s.newExpansion(bad.States)
	s.phase1(pairs, x, out)

	// Phase 2 (Procedure 2, steps 3-10). When backward implications are
	// enabled and the collected pairs are exhausted (their sv(u, i) sets
	// grow with the implied extras, so the step 3 constraint can starve
	// the budget), expansion falls back to trivial single-variable pairs,
	// exactly as the [4] baseline expands. This engineering completion
	// preserves the paper's observation that every fault detected by [4]
	// is also detected by the proposed procedure.
	var units []trivialUnit
	fallback := false
	for x.lanes() < s.cfg.NStates {
		if !fallback {
			if best := s.selectPair(pairs, x, nsv, nout); best >= 0 {
				s.addStep(x, &pairs[best], out)
				continue
			}
			if !s.cfg.UseBackwardImplications {
				break
			}
			fallback, units = true, s.trivialUnits(bad, nsv, nout)
		}
		u, i, ok := s.nextTrivial(units, x)
		if !ok {
			break
		}
		p := s.trivialPair(u, i)
		s.addStep(x, &p, out)
	}
	return x
}

// phase1 is Procedure 2, step 2: every single-sided pair forces its
// surviving side's implications into x's base sequence.
func (s *Simulator) phase1(pairs []pairInfo, x *expansion, out *FaultOutcome) {
	s0 := x.s0
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
}

// addStep applies pair p as phase 2's next step (Procedure 2, steps
// 5-9): every sequence of x duplicates at p.u.
func (s *Simulator) addStep(x *expansion, p *pairInfo, out *FaultOutcome) {
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

// sameSteps reports whether two expansions take the same steps: the
// same time unit and the same extras, in the same order.
func sameSteps(a, b []expStep) bool {
	return slices.EqualFunc(a, b, func(p, q expStep) bool {
		return p.u == q.u && slices.Equal(p.extra[0], q.extra[0]) && slices.Equal(p.extra[1], q.extra[1])
	})
}

// trivialUnit is one time unit of the [4] baseline's trivial pair list
// in the closed-form selection: its remaining candidates are the
// flip-flops i in [next, lim) with no value in the expansion's s0 and
// no assign stamp. nout and nsv are the unit's N_out and N_sv.
type trivialUnit struct {
	u, next, lim, nout, nsv int32
}

// trivialUnits prepares the closed form of selectPair over the trivial
// pair list: one pair (u, i) per X cell of bad.States[u], for the units
// u with N_out(u) > 0 (nout is non-increasing, so they are a prefix),
// in (u, i) order and cut after Config.MaxPairs pairs. Every trivial
// pair has extras of size 1, so criteria (3) and (4) always tie and
// selectPair picks, among the units ordered by maximum N_out, then
// minimum N_sv, then u, the first one with a candidate, and there its
// smallest i. The cut admits only the first X cells of the last unit
// it reaches: lim stops that unit's candidates after them. The result
// is pooled and sorted in that selection order.
func (s *Simulator) trivialUnits(bad *seqsim.Trace, nsv, nout []int) []trivialUnit {
	units := s.pools.trivialUnits[:0]
	left := s.cfg.MaxPairs // pairs the cut still admits, when MaxPairs > 0
	for u := 0; u < len(s.T) && nout[u] > 0; u++ {
		if nsv[u] == 0 {
			continue
		}
		lim := s.c.NumFFs()
		if s.cfg.MaxPairs > 0 {
			if left == 0 {
				break
			}
			if nsv[u] > left {
				for i, v := range bad.States[u] {
					if v == logic.X {
						if left--; left == 0 {
							lim = i + 1
							break
						}
					}
				}
			} else {
				left -= nsv[u]
			}
		}
		units = append(units, trivialUnit{u: int32(u), lim: int32(lim), nout: int32(nout[u]), nsv: int32(nsv[u])})
	}
	slices.SortFunc(units, func(a, b trivialUnit) int {
		return cmp.Or(cmp.Compare(b.nout, a.nout), cmp.Compare(a.nsv, b.nsv), cmp.Compare(a.u, b.u))
	})
	s.pools.trivialUnits = units
	return units
}

// nextTrivial returns the trivial pair (u, i) selectPair would pick
// from the list trivialUnits prepared, at x's current step, or false
// when no pair qualifies. A cell once blocked stays blocked for the
// rest of the expansion (phase 2 never clears an s0 value or a stamp),
// so each unit's cursor only moves forward.
func (s *Simulator) nextTrivial(units []trivialUnit, x *expansion) (u, i int, ok bool) {
	nFF := s.c.NumFFs()
	for k := range units {
		t := &units[k]
		row := x.s0[t.u]
		stamp := s.pools.assignStamp[int(t.u)*nFF:]
		for ; t.next < t.lim; t.next++ {
			if row[t.next] == logic.X && stamp[t.next] != s.pools.seedGen {
				return int(t.u), int(t.next), true
			}
		}
	}
	return 0, 0, false
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

// retrySkipHook, when set (tests only), observes every portfolio retry
// whose resimulation was skipped, with the retry's expansion x, so the
// skipped verdict can be checked by running it.
var retrySkipHook func(s *Simulator, f *fault.Fault, bad *seqsim.Trace, x *expansion, nout []int)

// Result aggregates a whole-fault-list run.
type Result struct {
	Circuit  string
	Total    int
	Outcomes []FaultOutcome
	// Tally counts the outcomes: the prescreen-settled faults' plus the
	// fault-loop workers' merged totals.
	Tally
	// Stages instruments the whole-list pipeline stages.
	Stages Stages
	// Metrics holds the run's histograms (see Hists); nil when
	// Config.Metrics is off.
	Metrics *RunMetrics
	// Live is the shared live-snapshot sink this run published into
	// (Config.Live); nil when live stats were off. After the run
	// returns, its snapshot's scheduling-invariant counters equal the
	// merged Result/Stages values of every run published into it.
	Live *LiveStats
}

// Stages holds per-stage counters and wall-clock timings of a
// whole-fault-list run (Run or RunParallel). PrescreenTime and MOTTime
// are wall-clock; Work's stage times are summed across RunParallel
// workers and are therefore CPU time (they can exceed MOTTime when
// workers > 1).
type Stages struct {
	PrescreenCounts
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
	// Work sums the pipeline faults' work; it is populated only with
	// Config.Metrics.
	Work
}

// AvgCounters returns the Table 3 averages over the faults detected by
// the MOT procedure beyond conventional simulation.
func (r *Result) AvgCounters() (det, conf, extra float64) {
	if r.MOT == 0 {
		return 0, 0, 0
	}
	n := float64(r.MOT)
	return float64(r.CtrDet) / n, float64(r.CtrConf) / n, float64(r.CtrExtra) / n
}

// Run simulates every fault in the list: RunParallel on one worker.
func (s *Simulator) Run(faults []fault.Fault, progress func(done, total int)) (*Result, error) {
	return s.RunParallelContext(context.Background(), faults, 1, progress)
}

// RunContext is Run with cancellation (see RunParallelContext).
func (s *Simulator) RunContext(ctx context.Context, faults []fault.Fault, progress func(done, total int)) (*Result, error) {
	return s.RunParallelContext(ctx, faults, 1, progress)
}

// RunParallel simulates the fault list on `workers` goroutines (fewer
// than 2 means one). Worker 0 runs on the simulator itself; every other
// worker clones it, sharing the immutable circuit, test sequence and
// fault-free trace. Results are identical for every worker count and
// are returned in fault-list order. With Config.Prescreen the whole
// list is first classified by batched bit-parallel simulation
// (conventional detection and condition (C), spread over the same
// worker count) and only the faults it leaves unsettled run the
// per-fault pipeline; outcomes are identical either way. The optional
// progress callback is invoked once per fault, the prescreen-settled
// faults first.
func (s *Simulator) RunParallel(faults []fault.Fault, workers int, progress func(done, total int)) (*Result, error) {
	return s.RunParallelContext(context.Background(), faults, workers, progress)
}

// ErrPanic marks the error of a run whose worker panicked, in either
// stage (see RunParallelContext); test for it with errors.Is.
var ErrPanic = workpool.ErrPanic

// RunParallelContext is RunParallel with cancellation: workers stop
// claiming prescreen batches and faults once ctx is done and the run
// returns ctx.Err(). A panic in a worker of either stage is contained:
// the pool stops and the run returns an error wrapping ErrPanic, with
// the panic value and stack; a fault-loop panic names the fault.
func (s *Simulator) RunParallelContext(ctx context.Context, faults []fault.Fault, workers int, progress func(done, total int)) (*Result, error) {
	res := &Result{Circuit: s.c.Name, Total: len(faults), Live: s.cfg.Live}
	res.Stages.CompileTime = s.compile
	s.beginRun(res)
	s.beginLive(len(faults))
	defer s.cfg.Live.endLive()
	sc := s.beginRunSpans(len(faults))
	pre, err := s.prescreen(ctx, faults, workers, res, sc)
	if err != nil {
		return nil, err
	}
	// recs holds every fault's record for the JSONL trace, in fault-list
	// order; prescreen-settled faults keep the zero record.
	var recs []faultRecord
	if s.cfg.TraceWriter != nil {
		recs = make([]faultRecord, len(faults))
	}
	motStart := time.Now()
	sc.beginStage("mot")
	outcomes := make([]FaultOutcome, len(faults))
	// todo lists the fault indices the prescreen did not settle: they need
	// the per-fault pipeline.
	todo := make([]int, 0, len(faults))
	for k := range faults {
		if o, ok := pre.outcome(k, faults[k]); ok {
			outcomes[k] = o
			res.count(&o, false)
			continue
		}
		todo = append(todo, k)
	}
	// The prescreen-settled faults never reach a worker: publish their
	// tally with the stage's counters.
	res.Stages.PrescreenDropped, res.Stages.PrescreenPrunedC = res.Conv, res.PrunedConditionC
	s.cfg.Live.add(LiveSnapshot{PrescreenCounts: res.Stages.PrescreenCounts, Tally: res.Tally})
	count := len(faults) - len(todo)
	if progress != nil {
		for d := 1; d <= count; d++ {
			progress(d, len(faults))
		}
	}
	nw := workpool.Size(len(todo), workers)
	sims := make([]*Simulator, nw)
	pubs := make([]livePublisher, nw)
	wss := make([]*workerSpans, nw)
	for w := range sims {
		sims[w] = s
		if w > 0 {
			sims[w] = s.clone()
		}
		pubs[w].init(s.cfg)
		wss[w] = sc.worker(w)
	}
	var mu sync.Mutex
	err = workpool.Run(ctx, len(todo), workers, func(w, t int) error {
		sim, ws, k := sims[w], wss[w], todo[t]
		ws.begin(sim, k, faults[k])
		o, err := sim.SimulateFault(faults[k])
		if err == nil {
			sim.observeHist(&o)
		}
		ws.end(sim, &o)
		if err != nil {
			return fmt.Errorf("core: fault %s: %w", faults[k].Name(s.c), err)
		}
		pubs[w].observe(&o, &sim.rec)
		if recs != nil {
			// Distinct index per fault: no write races between workers.
			recs[k] = sim.rec
		}
		outcomes[k] = o
		if progress != nil {
			mu.Lock()
			count++
			progress(count, len(faults))
			mu.Unlock()
		}
		return nil
	}, func(w int) {
		sim := sims[w]
		wss[w].close()
		sim.sim.FlushFrameHists()
		pubs[w].flush()
		// A panicking fault leaves its span armed on the simulator.
		sim.tbuf, sim.span = nil, 0
	})
	sc.endStage()
	var pe *workpool.PanicError
	if errors.As(err, &pe) {
		err = fmt.Errorf("core: fault %s: %w", panicName(faults, todo[pe.Job], s.c), err)
	}
	if err != nil {
		return nil, err
	}
	res.Outcomes = outcomes
	res.Stages.MOTTime = time.Since(motStart)
	total := LiveSnapshot{Tally: res.Tally}
	for w := range pubs {
		total.Add(pubs[w].total)
	}
	res.Tally, res.Stages.Work = total.Tally, total.Work
	sc.finish(res)
	if err := s.writeTrace(res, recs); err != nil {
		return nil, fmt.Errorf("core: trace: %w", err)
	}
	return res, nil
}

// panicName names fault k for a recovered panic: its usual name, or
// its raw fields when the fault itself is what cannot be named.
func panicName(faults []fault.Fault, k int, c *netlist.Circuit) (name string) {
	defer func() {
		if recover() != nil {
			name = fmt.Sprintf("%+v", faults[k])
		}
	}()
	return faults[k].Name(c)
}

// clone returns a fault-loop worker for s: a simulator sharing its
// circuit, compiled IR, sequence, fault-free trace, collection memo and
// run histograms, with its own frame evaluator and pools.
func (s *Simulator) clone() *Simulator {
	c := &Simulator{
		c: s.c, cc: s.cc, compile: s.compile, cfg: s.cfg, T: s.T, good: s.good,
		memo: s.memo,
		sim:  seqsim.NewCompiled(s.cc),
		hist: s.hist,
	}
	if s.hist != nil {
		c.sim.SetFrameHists(s.hist[EventsPerFrame], s.hist[GatesVisitedPerFrame])
	}
	return c
}
