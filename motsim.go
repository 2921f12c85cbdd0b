// Package motsim is a fault simulator for synchronous sequential circuits
// under the restricted multiple observation time (MOT) approach, using
// state expansion enhanced with backward implications. It reproduces
// I. Pomeranz and S. M. Reddy, "Fault Simulation under the Multiple
// Observation Time Approach using Backward Implications", DAC 1997.
//
// The package is a facade over the implementation packages:
//
//   - circuits are gate-level ISCAS-89-style netlists (ParseBench,
//     LoadBench, BuiltinCircuit);
//   - faults are single stuck-at faults on stems and fanout branches
//     (Faults, CollapsedFaults);
//   - test sequences come from files (ReadVectors), seeded random
//     generation (RandomSequence) or a greedy coverage-directed generator
//     (GreedySequence);
//   - New builds a Simulator that classifies each fault as detected by
//     conventional three-valued simulation, detected by the MOT procedure
//     beyond conventional simulation, or undetected.
//
// A minimal end-to-end run:
//
//	c, _ := motsim.BuiltinCircuit("s27")
//	T := motsim.RandomSequence(c, 32, 1)
//	sim, _ := motsim.New(c, T, motsim.DefaultConfig())
//	res, _ := sim.Run(motsim.CollapsedFaults(c), nil)
//	fmt.Println(res.Conv, "conventional,", res.MOT, "MOT-only")
package motsim

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/vcd"
	"repro/internal/vectors"
	"repro/internal/xtrace"
)

// Core type aliases; see the respective packages for full documentation.
type (
	// Circuit is a compiled gate-level sequential circuit.
	Circuit = netlist.Circuit
	// NodeID identifies a signal node within a circuit.
	NodeID = netlist.NodeID
	// GateID identifies a gate within a circuit.
	GateID = netlist.GateID
	// Fault is a single stuck-at fault (stem or fanout branch).
	Fault = fault.Fault
	// Pattern is one primary-input vector.
	Pattern = seqsim.Pattern
	// Sequence is a test sequence (one pattern per time frame).
	Sequence = seqsim.Sequence
	// Trace is a simulation history (states, outputs).
	Trace = seqsim.Trace
	// Config controls the MOT procedure.
	Config = core.Config
	// Simulator runs the per-fault MOT pipeline.
	Simulator = core.Simulator
	// Result aggregates a whole fault-list run.
	Result = core.Result
	// Stages holds per-stage counters and timings of a fault-list run
	// (prescreen passes, faults dropped, wall-clock per stage, and — with
	// Config.Metrics on — the per-stage CPU breakdown, pool gauges and
	// serial-simulator frame counters).
	Stages = core.Stages
	// StageNS is the per-stage nanosecond breakdown of the MOT pipeline
	// (step 0, pair collection, implications, expansion, resimulation).
	StageNS = core.StageNS
	// PoolStats aggregates object-pool reuse counters and arena peaks.
	PoolStats = core.PoolStats
	// SimStats counts serial-simulator work (delta vs. full frames).
	SimStats = seqsim.SimStats
	// RunMetrics holds the per-fault distribution histograms of a run
	// (pairs, expansions, sequences at stop, per-fault time).
	RunMetrics = core.RunMetrics
	// TraceEvent is one per-fault record of the JSONL trace stream
	// written to Config.TraceWriter.
	TraceEvent = core.TraceEvent
	// LiveStats is a concurrency-safe view of in-flight runs, published
	// on a coarse cadence when set as Config.Live (see Config.LiveEvery).
	LiveStats = core.LiveStats
	// LiveSnapshot is a point-in-time copy of a LiveStats.
	LiveSnapshot = core.LiveSnapshot
	// TraceDetection locates a conventional detection within a trace
	// event (time frame and primary output).
	TraceDetection = core.TraceDetection
	// FaultOutcome is the classification of one fault.
	FaultOutcome = core.FaultOutcome
	// Outcome is the per-fault classification code.
	Outcome = core.Outcome
	// Val is a three-valued logic value.
	Val = logic.Val
	// GenParams parameterizes the synthetic circuit generator.
	GenParams = circuits.GenParams
	// SuiteEntry describes one benchmark-suite circuit.
	SuiteEntry = circuits.SuiteEntry
	// GreedyConfig controls the coverage-directed sequence generator.
	GreedyConfig = tgen.GreedyConfig
	// Tracer collects hierarchical spans of a run when set as
	// Config.Tracer; export with its WriteChromeTrace / WriteJSONL.
	Tracer = xtrace.Tracer
	// TracerOptions sizes a Tracer (span cap, flight-recorder ring).
	TracerOptions = xtrace.Options
	// Span is one recorded span (deterministic ID, parent link, name,
	// attributes, and scheduling-dependent track/timestamps).
	Span = xtrace.Span
)

// Outcome codes.
const (
	Undetected           = core.Undetected
	DetectedConventional = core.DetectedConventional
	DetectedMOT          = core.DetectedMOT
)

// Logic values.
const (
	Zero = logic.Zero
	One  = logic.One
	X    = logic.X
)

// DefaultConfig returns the paper's experimental configuration:
// N_STATES = 64, backward implications enabled, and the bit-parallel
// conventional prescreen on (set Config.Prescreen to false to force the
// serial per-fault conventional stage; outcomes are identical).
// Instrumentation defaults to on (Config.Metrics); a run then carries
// the per-stage time breakdown and pool gauges in Result.Stages and the
// per-fault histograms in Result.Metrics. Set Config.TraceWriter to
// stream one JSON object per fault (see TraceEvent); the stream is
// byte-identical regardless of worker count unless Config.TraceTimings
// adds wall-clock stage timings to each event.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewTracer builds a span tracer for Config.Tracer. The zero
// TracerOptions selects the defaults (256k-span cap, 4096-span flight
// recorder). Span IDs and parent links are deterministic across worker
// counts; see Config.TraceSampleRate for the per-fault sampling rate.
func NewTracer(opts TracerOptions) *Tracer { return xtrace.New(opts) }

// BaselineConfig returns the configuration of the comparison procedure of
// [4]: state expansion only, no backward implications.
func BaselineConfig() Config { return core.BaselineConfig() }

// New builds a Simulator for the circuit, test sequence and
// configuration, running fault-free simulation up front.
func New(c *Circuit, T Sequence, cfg Config) (*Simulator, error) {
	return core.NewSimulator(c, T, cfg)
}

// ParseBench parses an ISCAS-89 ".bench" netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return bench.Parse(name, r)
}

// LoadBench parses a ".bench" netlist file; the circuit is named after
// the file.
func LoadBench(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return bench.Parse(name, f)
}

// WriteBench renders a circuit in ".bench" format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// BuiltinCircuit returns a built-in circuit by name: "s27" (the real
// ISCAS-89 circuit), "fig4", "intro", "table1" (the paper's illustrative
// circuits), or a synthetic suite name such as "sg5378" (also reachable
// by the paper name "s5378").
func BuiltinCircuit(name string) (*Circuit, error) { return circuits.ByName(name) }

// BuiltinNames lists every name BuiltinCircuit accepts.
func BuiltinNames() []string { return circuits.Names() }

// Suite returns the synthetic benchmark suite mirroring the paper's
// Table 2 circuits.
func Suite() []SuiteEntry { return circuits.Suite() }

// Generate builds a synthetic ISCAS-like circuit.
func Generate(p GenParams) (*Circuit, error) { return circuits.Generate(p) }

// Faults enumerates the full single stuck-at fault list of the circuit.
func Faults(c *Circuit) []Fault { return fault.List(c) }

// CollapsedFaults returns the equivalence-collapsed fault list.
func CollapsedFaults(c *Circuit) []Fault { return fault.CollapsedList(c) }

// RandomSequence returns a seeded random binary test sequence for c.
func RandomSequence(c *Circuit, length int, seed int64) Sequence {
	return tgen.Random(c.NumInputs(), length, seed)
}

// GreedySequence builds a compact deterministic test sequence by greedy
// coverage-directed search (the HITEC stand-in).
func GreedySequence(c *Circuit, faults []Fault, cfg GreedyConfig) (Sequence, error) {
	return tgen.Greedy(c, faults, cfg)
}

// DefaultGreedyConfig returns the default greedy-generator settings.
func DefaultGreedyConfig() GreedyConfig { return tgen.DefaultGreedyConfig() }

// ConventionalResult is the outcome of conventional (single observation
// time) fault simulation of one fault.
type ConventionalResult = seqsim.FaultResult

// Conventional runs conventional three-valued fault simulation for every
// fault, 255 faulty machines at a time using the bit-parallel engine. It
// is the fast path when the multiple observation time analysis is not
// needed.
func Conventional(c *Circuit, T Sequence, faults []Fault) ([]ConventionalResult, error) {
	return bitsim.Run(c, T, faults)
}

// Frame is a single-time-frame value assignment supporting the paper's
// implication machinery: asserting next-state values, backward and
// forward implications, conflict detection.
type Frame = implic.Frame

// EvalFrame computes every node value for one time frame of c: pi are
// the primary-input values, ps the present-state values, f the injected
// fault (nil for fault-free), and vals the output buffer with one entry
// per node (c.NumNodes() long).
func EvalFrame(c *Circuit, pi Pattern, ps []Val, f *Fault, vals []Val) {
	seqsim.EvalFrame(c, pi, ps, f, vals)
}

// NewFrame builds an implication frame from a base assignment as produced
// by EvalFrame with the same fault (nil for fault-free).
func NewFrame(c *Circuit, f *Fault, base []Val) *Frame {
	return implic.New(c, f, base)
}

// ATPG types re-exported from the deterministic test generator.
type (
	// ATPGConfig bounds the PODEM search.
	ATPGConfig = atpg.Config
	// ATPGResult is the outcome of generating a test for one fault.
	ATPGResult = atpg.Result
	// ATPGSummary aggregates a whole-list ATPG run.
	ATPGSummary = atpg.Summary
)

// DefaultATPGConfig returns the default test-generation bounds.
func DefaultATPGConfig() ATPGConfig { return atpg.DefaultConfig() }

// GenerateTests runs deterministic sequential ATPG (PODEM over a bounded
// time-frame expansion) for every fault, with fault dropping between
// targets. It returns per-fault results, the concatenated test sequence,
// and a summary. Every generated test is verified by the conventional
// fault simulator before being reported.
func GenerateTests(c *Circuit, faults []Fault, cfg ATPGConfig) ([]ATPGResult, Sequence, ATPGSummary, error) {
	return atpg.GenerateAll(c, faults, cfg)
}

// Simulate runs three-valued simulation of one machine — fault-free when
// f is nil — and returns its trace. keepNodes retains per-frame node
// values (needed for AllNodes waveform dumps and implication frames).
func Simulate(c *Circuit, T Sequence, f *Fault, keepNodes bool) (*Trace, error) {
	return seqsim.New(c).Run(T, f, keepNodes)
}

// WriteVCD renders a simulation trace as an IEEE 1364 Value Change Dump
// for waveform viewers. With allNodes the trace must retain node values.
func WriteVCD(w io.Writer, c *Circuit, T Sequence, tr *Trace, allNodes bool) error {
	return vcd.Write(w, c, T, tr, vcd.Options{AllNodes: allNodes})
}

// FaultByName finds a fault in the list by its Name(c) rendering.
func FaultByName(c *Circuit, faults []Fault, name string) (Fault, error) {
	for _, f := range faults {
		if f.Name(c) == name {
			return f, nil
		}
	}
	return Fault{}, fmt.Errorf("motsim: no fault named %q", name)
}

// ReadVectors parses a test-sequence file (one pattern per line).
func ReadVectors(r io.Reader) (Sequence, error) { return vectors.Read(r) }

// ReadVectorsFile parses a test-sequence file from disk.
func ReadVectorsFile(path string) (Sequence, error) { return vectors.ReadFile(path) }

// WriteVectors renders a test sequence, one pattern per line.
func WriteVectors(w io.Writer, T Sequence) error { return vectors.Write(w, T) }
