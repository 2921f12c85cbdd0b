package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/vectors"
	"repro/internal/xtrace"
)

// RunRequest is the body of POST /runs. Exactly one circuit source is
// required (a built-in name or an inline .bench netlist); the test
// sequence comes from inline vector text or seeded random generation
// (default: 64 random patterns, seed 1). The method names match the
// motfsim -method flag.
type RunRequest struct {
	// Circuit names a built-in circuit (s27, sg298, ...); Bench carries
	// an inline ISCAS-89 .bench netlist instead.
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
	// Vectors is inline test-sequence text (one pattern per line);
	// Random generates a random sequence of that length with Seed.
	Vectors string `json:"vectors,omitempty"`
	Random  int    `json:"random,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Method is proposed (default), baseline, or lowcomplexity.
	Method string `json:"method,omitempty"`
	// NStates overrides the expansion budget (default 64).
	NStates int `json:"nstates,omitempty"`
	// Workers bounds the fault-simulation goroutines (default and
	// maximum NumCPU).
	Workers int `json:"workers,omitempty"`
	// Prescreen and Metrics default to on; send false to disable.
	Prescreen *bool `json:"prescreen,omitempty"`
	Metrics   *bool `json:"metrics,omitempty"`
	// FullFaults selects the uncollapsed fault list.
	FullFaults bool `json:"full_faults,omitempty"`
	// Trace streams the per-fault JSONL trace on the run's event feed.
	Trace bool `json:"trace,omitempty"`
	// TraceSample overrides the server's per-fault span sampling rate
	// for this run, in [0, 1]; see GET /runs/{id}/trace.
	TraceSample *float64 `json:"trace_sample,omitempty"`
	// LiveEvery overrides the live-snapshot publication cadence.
	LiveEvery int `json:"live_every,omitempty"`
}

// Run statuses, in lifecycle order.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Run is one registered simulation run. The inputs are built at
// submission time (so request errors surface on POST, not later); the
// mutable lifecycle state lives behind mu. Once the run ends, its
// working set (circuit, sequence, fault list, warm state and per-fault
// result) is released and only what Status reports is kept, so a
// registry of finished runs costs little memory.
type Run struct {
	ID      string
	Req     RunRequest
	Created time.Time

	// circuitName, patterns and nfaults describe the inputs for Status;
	// they outlive the inputs themselves.
	circuitName string
	patterns    int
	nfaults     int

	// circuit, seq, faults and warm are the run's working set, set at
	// submission and released (nil) once the run ends.
	circuit *netlist.Circuit
	seq     seqsim.Sequence
	faults  []fault.Fault
	cfg     core.Config
	method  string
	workers int

	// Warm-start state from the server's cross-run cache: warm carries
	// the compiled IR (always) and the fault-free trace (on a trace
	// hit); goodKey is where execute stores the trace after a cold run.
	warm    core.Warm
	goodKey string
	cache   *runCache
	info    CacheInfo

	// panicked is the server's count of runs that failed by a panic.
	panicked *atomic.Int64

	live   *core.LiveStats
	events *eventLog
	tracer *xtrace.Tracer
	cancel context.CancelFunc

	mu       sync.Mutex
	status   string
	started  time.Time
	finished time.Time
	// report and attrs summarize a successful run: the report GET
	// /runs/{id} returns and the run-finished log attributes, both built
	// once from the result when the run ends.
	report    *report.RunReport
	attrs     []any
	runErr    error
	resources *RunResources
}

// RunStatus is the JSON view of a run returned by GET /runs/{id}.
type RunStatus struct {
	ID       string `json:"id"`
	Circuit  string `json:"circuit"`
	Method   string `json:"method"`
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Patterns int    `json:"patterns"`
	Faults   int    `json:"faults"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Cache reports which memoized artifacts this run reused; absent
	// when the server's cache is disabled.
	Cache *CacheInfo `json:"cache,omitempty"`

	// Resources is the run's resource attribution, present once the run
	// has executed; see RunResources for the overlap caveat.
	Resources *RunResources `json:"resources,omitempty"`

	// Live is the current (mid-run) or final snapshot of the run's
	// counters; see core.LiveSnapshot for field semantics.
	Live core.LiveSnapshot `json:"live"`
	// Report is the full run summary, present once the run is done.
	Report *report.RunReport `json:"report,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// Request bounds: a POST /runs above either is refused with 400 before
// any work starts. MaxPatterns caps the test sequence, random or inline
// vectors; MaxNStates caps the expansion budget, which expansion fills
// by doubling its sequences, each resimulated on a lane (one vector
// pass per 64 sequences). Workers
// above runtime.NumCPU() are clamped to it instead: outcomes do not
// depend on the worker count.
const (
	MaxPatterns = 4096
	MaxNStates  = 1024
)

// buildRun validates a request and assembles everything the run needs,
// reusing the server's cross-run cache where the request's content
// matches a previous submission: a circuit hit skips parsing and
// compilation, a trace hit lets execute skip the fault-free (step-0)
// simulation. The returned run has no ID yet — handleCreate assigns it
// inside the same critical section that reserves the registry slot.
func (s *Server) buildRun(req RunRequest, now time.Time) (*Run, error) {
	var c *netlist.Circuit
	var cc *cir.CC
	var info CacheInfo
	var err error
	switch {
	case req.Circuit != "" && req.Bench != "":
		return nil, fmt.Errorf("request sets both circuit and bench")
	case req.Circuit == "" && req.Bench == "":
		return nil, fmt.Errorf("request needs a circuit name or an inline bench netlist")
	case req.Random > MaxPatterns:
		return nil, fmt.Errorf("random %d exceeds the limit of %d patterns", req.Random, MaxPatterns)
	case req.NStates > MaxNStates:
		return nil, fmt.Errorf("nstates %d exceeds the limit of %d", req.NStates, MaxNStates)
	}
	src := srcKey(req)
	if e, ok := s.cache.circuit(src); ok {
		c, cc = e.c, e.cc
		info.CircuitHit = true
	} else {
		if req.Circuit != "" {
			if c, err = circuits.ByName(req.Circuit); err != nil {
				return nil, err
			}
		} else {
			if c, err = bench.ParseString("request.bench", req.Bench); err != nil {
				return nil, err
			}
		}
		cc = cir.For(c)
		s.cache.addCircuit(src, circuitEntry{c: c, cc: cc})
	}

	var T seqsim.Sequence
	switch {
	case req.Vectors != "" && req.Random > 0:
		return nil, fmt.Errorf("request sets both vectors and random")
	case req.Vectors != "":
		if T, err = vectors.Read(strings.NewReader(req.Vectors)); err != nil {
			return nil, err
		}
		if len(T) == 0 {
			return nil, fmt.Errorf("vectors text contains no patterns")
		}
		if len(T) > MaxPatterns {
			return nil, fmt.Errorf("vectors text has %d patterns, exceeding the limit of %d", len(T), MaxPatterns)
		}
		if len(T[0]) != c.NumInputs() {
			return nil, fmt.Errorf("vectors have %d inputs, circuit %s has %d",
				len(T[0]), c.Name, c.NumInputs())
		}
	default:
		n, seed := req.Random, req.Seed
		if n <= 0 {
			n = 64
		}
		if seed == 0 {
			seed = 1
		}
		T = tgen.Random(c.NumInputs(), n, seed)
	}

	method := req.Method
	if method == "" {
		method = "proposed"
	}
	var cfg core.Config
	switch method {
	case "proposed":
		cfg = core.DefaultConfig()
	case "baseline":
		cfg = core.BaselineConfig()
	case "lowcomplexity":
		cfg = core.DefaultConfig()
		cfg.IdentificationOnly = true
	default:
		return nil, fmt.Errorf("unknown method %q (want proposed, baseline, or lowcomplexity)", method)
	}
	if req.NStates > 0 {
		cfg.NStates = req.NStates
	}
	if req.Prescreen != nil {
		cfg.Prescreen = *req.Prescreen
	}
	if req.Metrics != nil {
		cfg.Metrics = *req.Metrics
	}
	if req.LiveEvery < 0 {
		return nil, fmt.Errorf("live_every must be non-negative")
	}
	cfg.LiveEvery = req.LiveEvery
	cfg.TraceSampleRate = s.cfg.TraceSample
	if req.TraceSample != nil {
		if *req.TraceSample < 0 || *req.TraceSample > 1 {
			return nil, fmt.Errorf("trace_sample must be in [0, 1], got %g", *req.TraceSample)
		}
		cfg.TraceSampleRate = *req.TraceSample
	}

	workers := req.Workers
	if workers <= 0 || workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}

	// Faults run in list order, as motfsim runs them: the list is a
	// pure function of the circuit, so warm and cold submissions of the
	// same request simulate the same faults in the same order and their
	// results stay byte-identical.
	faults := fault.CollapsedList(c)
	if req.FullFaults {
		faults = fault.List(c)
	}

	warm := core.Warm{CC: cc}
	gk := goodKey(req)
	if tr, ok := s.cache.trace(gk); ok {
		warm.Good = tr
		info.TraceHit = true
	}

	r := &Run{
		Req:         req,
		Created:     now,
		circuitName: c.Name,
		patterns:    len(T),
		nfaults:     len(faults),
		circuit:     c,
		seq:         T,
		faults:      faults,
		cfg:         cfg,
		method:      method,
		workers:     workers,
		warm:        warm,
		goodKey:     gk,
		cache:       s.cache,
		info:        info,
		panicked:    &s.runsPanicked,
		live:        &core.LiveStats{},
		events:      newEventLog(),
		tracer:      xtrace.New(xtrace.Options{Ring: s.ring}),
		status:      StatusQueued,
	}
	r.cfg.Live = r.live
	r.cfg.Tracer = r.tracer
	if req.Trace {
		r.cfg.TraceWriter = &lineWriter{log: r.events, name: "trace"}
	}
	return r, nil
}

// Status snapshots the run for the API.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:        r.ID,
		Circuit:   r.circuitName,
		Method:    r.method,
		Status:    r.status,
		Workers:   r.workers,
		Patterns:  r.patterns,
		Faults:    r.nfaults,
		CreatedAt: r.Created,
		Live:      r.live.Snapshot(),
	}
	if r.cache != nil {
		info := r.info
		st.Cache = &info
	}
	if r.resources != nil {
		res := *r.resources
		st.Resources = &res
	}
	if !r.started.IsZero() {
		t := r.started
		st.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.FinishedAt = &t
	}
	st.Report = r.report
	if r.runErr != nil {
		st.Error = r.runErr.Error()
	}
	return st
}

// progressEvery is the cadence of the progress events on a run's event
// stream while it executes.
const progressEvery = 200 * time.Millisecond

// execute runs the simulation to completion, feeding the event stream.
// It is called on its own goroutine with the slot already acquired.
// The run's resource usage is handed to account and recorded on the run
// before the terminal status is published, so a client that sees the
// run end also sees its resources and the server's aggregate counters.
func (r *Run) execute(ctx context.Context, account func(cpu time.Duration, allocBytes int64)) {
	before := sampleResources()
	r.mu.Lock()
	r.status = StatusRunning
	r.started = time.Now()
	r.mu.Unlock()
	r.event("status", map[string]any{"status": StatusRunning})

	// Progress feed: one event per tick while the counters move.
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tick := time.NewTicker(progressEvery)
		defer tick.Stop()
		var last core.LiveSnapshot
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if s := r.live.Snapshot(); s != last {
					last = s
					r.event("progress", s)
				}
			}
		}
	}()

	rep, attrs, err := r.simulate(ctx)
	close(stop)
	tickWG.Wait()
	cpu, alloc := sampleResources().delta(before)
	account(cpu, alloc)

	r.mu.Lock()
	r.resources = &RunResources{CPUSeconds: cpu.Seconds(), AllocBytes: alloc}
	r.finished = time.Now()
	switch {
	case err == nil:
		r.status = StatusDone
		r.report, r.attrs = rep, attrs
	case errors.Is(err, context.Canceled):
		r.status = StatusCanceled
		r.runErr = err
	default:
		r.status = StatusFailed
		r.runErr = err
	}
	status := r.status
	r.release()
	r.mu.Unlock()

	// Final snapshot (equal to the merged result counters), then the
	// terminal status, then end of stream.
	r.event("progress", r.live.Snapshot())
	fin := map[string]any{"status": status}
	if err != nil {
		fin["error"] = err.Error()
	}
	r.event("status", fin)
	r.events.close()
}

// simulate runs the simulation and summarizes the result. A panic
// anywhere in it (building the simulator, the run, the report) is
// recovered into an error carrying the stack, so the run fails instead
// of taking the server down. Such a run, and one whose fault loop
// contained a worker panic (core.ErrPanic), counts as panicked.
func (r *Run) simulate(ctx context.Context) (rep *report.RunReport, attrs []any, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, attrs = nil, nil
			err = fmt.Errorf("serve: run panic: %v\n%s", p, debug.Stack())
			r.panicked.Add(1)
		} else if errors.Is(err, core.ErrPanic) {
			r.panicked.Add(1)
		}
	}()
	sim, err := core.NewSimulatorWarm(r.circuit, r.seq, r.cfg, r.warm)
	if err != nil {
		return nil, nil, err
	}
	// A cold run just paid for the fault-free simulation; bank its trace
	// so the next submission of the same (circuit, vectors) pair starts
	// warm.
	if r.warm.Good == nil {
		r.cache.addTrace(r.goodKey, sim.Good())
	}
	res, err := sim.RunParallelContext(ctx, r.faults, r.workers, nil)
	if err != nil {
		return nil, nil, err
	}
	rr := report.NewRunReport(res, r.method, r.patterns, r.workers, time.Since(r.started))
	return &rr, report.ResultAttrs(res), nil
}

// ended reports whether the run has finished: done, failed or canceled.
func (r *Run) ended() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status == StatusDone || r.status == StatusFailed || r.status == StatusCanceled
}

// release drops the run's working set once it has ended: nothing reads
// the inputs afterwards, and the result lives on only as the report.
// Called with r.mu held.
func (r *Run) release() {
	r.circuit, r.seq, r.faults, r.warm = nil, nil, nil, core.Warm{}
}

// event marshals payload and appends it to the run's stream.
func (r *Run) event(name string, payload any) {
	b, err := json.Marshal(payload)
	if err != nil {
		return
	}
	r.events.append(Event{Name: name, Data: string(b)})
}
