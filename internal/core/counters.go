package core

import (
	"slices"
	"unsafe"
)

// Unit is what a run counter counts.
type Unit uint8

const (
	// Count is a plain count of events or items.
	Count Unit = iota
	// Nanoseconds is a summed duration; /metrics exposes it in seconds.
	Nanoseconds
)

// RunCounter describes one run counter: an int64 field of LiveSnapshot,
// Work's included.
type RunCounter struct {
	// Key is the field's JSON key.
	Key string
	// Family is the /metrics counter family, without the exposition
	// prefix, and Help its HELP text.
	Family, Help string
	Unit         Unit
	// off is the field's offset in LiveSnapshot. A row locates its
	// field by offset, not through an accessor func, because a pointer
	// passed through a func value escapes: every fold would copy its
	// operands to the heap.
	off uintptr
}

// Scale converts a value in the unit to its /metrics exposition unit:
// nanoseconds to seconds, counts unchanged.
func (u Unit) Scale() float64 {
	if u == Nanoseconds {
		return 1e-9
	}
	return 1
}

// Value reads the counter from s.
func (c *RunCounter) Value(s *LiveSnapshot) int64 { return *c.at(unsafe.Pointer(s), 0) }

// at returns the counter's field in the struct at p, which starts at
// offset base of a LiveSnapshot (0, or workBase for a Work).
func (c *RunCounter) at(p unsafe.Pointer, base uintptr) *int64 {
	return (*int64)(unsafe.Add(p, c.off-base))
}

// Tally counts the classified outcomes of a run's faults: the Table 2
// detections (Conv and the MOT extras), the Table 3 counters summed over
// the MOT-detected faults (Ctr*), and the outcomes' Pairs, Expansions
// and Sequences summed over every fault. count classifies one outcome
// into it; Result and LiveSnapshot carry the sum over their faults.
type Tally struct {
	FaultsDone int64 `json:"faults_done"`
	Conv       int64 `json:"detected_conventional"`
	MOT        int64 `json:"detected_mot"`
	// PrunedConditionC counts undetected faults rejected by the
	// necessary condition (C), in a prescreen lane or in the pipeline.
	PrunedConditionC int64 `json:"pruned_condition_c"`
	// Identified counts MOT detections established from the collected
	// implication information alone (Section 3.2), without expansion.
	Identified int64 `json:"identified"`
	// MOTFaults counts the faults that entered the per-fault pipeline:
	// FaultsDone - PrescreenDropped - PrescreenPrunedC.
	MOTFaults  int64 `json:"mot_faults"`
	Pairs      int64 `json:"pairs"`
	Expansions int64 `json:"expansions"`
	Sequences  int64 `json:"sequences"`
	CtrDet     int64 `json:"ctr_det"`
	CtrConf    int64 `json:"ctr_conf"`
	CtrExtra   int64 `json:"ctr_extra"`
}

// count classifies outcome o into t; pipeline reports that o ran the
// per-fault pipeline rather than being settled by the prescreen.
func (t *Tally) count(o *FaultOutcome, pipeline bool) {
	t.FaultsDone++
	if pipeline {
		t.MOTFaults++
	}
	switch o.Outcome {
	case DetectedConventional:
		t.Conv++
	case DetectedMOT:
		t.MOT++
		if o.ByIdentification {
			t.Identified++
		}
		t.CtrDet += int64(o.Counters.Det)
		t.CtrConf += int64(o.Counters.Conf)
		t.CtrExtra += int64(o.Counters.Extra)
	default:
		if o.FailedConditionC {
			t.PrunedConditionC++
		}
	}
	t.Pairs += int64(o.Pairs)
	t.Expansions += int64(o.Expansions)
	t.Sequences += int64(o.Sequences)
}

// Detected returns the faults detected so far.
func (t Tally) Detected() int64 { return t.Conv + t.MOT }

// Undetected returns the faults classified so far as undetected.
func (t Tally) Undetected() int64 { return t.FaultsDone - t.Detected() }

// PrescreenCounts are the bit-parallel prescreen's stage counters (zero
// when Config.Prescreen is off), which Stages records and LiveSnapshot
// sums over runs. Dropped faults are the ones the lanes detect
// conventionally, PrunedC the undetected ones the lanes find failing
// condition (C): neither enters the per-fault pipeline. SavedFrames
// counts the frames its all-lanes-resolved early exit skipped, and
// GateEvals only the gates a lane-divergent value reaches in event
// frames, every gate in sweep frames.
type PrescreenCounts struct {
	PrescreenPasses      int64 `json:"prescreen_passes"`
	PrescreenDropped     int64 `json:"prescreen_dropped"`
	PrescreenPrunedC     int64 `json:"prescreen_pruned_c"`
	PrescreenFrames      int64 `json:"prescreen_frames"`
	PrescreenSavedFrames int64 `json:"prescreen_saved_frames"`
	PrescreenGateEvals   int64 `json:"prescreen_gate_evals"`
}

// Work is the per-fault work of the MOT pipeline: what a faultRecord
// accumulates for one fault, and what LiveSnapshot and Stages sum over
// the faults that entered the pipeline. Every field but the *NS stage
// times is deterministic for a given circuit, sequence, configuration
// and fault; the stage times are zero unless Config.Metrics is on. A
// run folds Work into its sinks only with Config.Metrics on.
type Work struct {
	// ImplyCalls counts in-frame implication runs: one per asserted
	// side of every collected pair (a lane of a lane pass or a side
	// served from the fault-free lane memo; a side whose assertion
	// conflicts outright runs none), plus one per lane of each
	// deep-backward chase level (BackwardDepth > 1) whose assertions
	// all hold.
	ImplyCalls int64 `json:"imply_calls"`
	// ImplyLaneEvals counts the gates the lane implication passes
	// evaluated, backward and forward closures together (only gates a
	// lane-divergent value reaches are evaluated), the one build of the
	// fault-free lane memo included.
	ImplyLaneEvals int64 `json:"imply_lane_evals"`
	// ImplyMemoHits counts the pairs served from the fault-free lane
	// memo instead of a lane pass on the faulty frame.
	ImplyMemoHits int64 `json:"imply_memo_hits"`
	// ImplyNS is the implication share of CollectNS: the lane
	// implication passes and the fault-free lane memo's build, timed
	// directly. It is a subset of CollectNS, not an additional stage.
	ImplyNS int64 `json:"imply_ns"`

	// ResimVectorPasses counts bit-parallel resimulation passes of up to
	// 64 lanes, the portfolio retries that resimulate included. ResimVectorFrames counts the
	// time frames those passes evaluated (frames with no active lane are
	// skipped and not counted), and ResimGateEvals the gates they
	// evaluated (only gates a lane-divergent value reaches are evaluated,
	// so a frame with no divergence counts none). Expansions of more
	// than 64 sequences run one pass per 64-lane chunk, stopping at the
	// first chunk that leaves a lane unresolved.
	ResimVectorPasses int64 `json:"resim_vector_passes"`
	ResimVectorFrames int64 `json:"resim_vector_frames"`
	ResimGateEvals    int64 `json:"resim_gate_evals"`

	// Step0NS covers the serial conventional resimulation plus the
	// condition (C) profile; CollectNS pair collection (Section 3.1)
	// including its implication runs; ExpandNS Procedure 2; ResimNS the
	// Section 3.4 resimulation (both including the portfolio retry, whose
	// expansion ExpandNS counts even when its resimulation is skipped);
	// TotalNS the whole SimulateFault call.
	Step0NS   int64 `json:"step0_ns"`
	CollectNS int64 `json:"collect_ns"`
	ExpandNS  int64 `json:"expand_ns"`
	ResimNS   int64 `json:"resim_ns"`
	TotalNS   int64 `json:"total_ns"`

	// EventFrames counts the sparse faulty frames step 0 evaluated,
	// EventGateEvals the gates evaluated in them and Events the node
	// value changes they propagated.
	EventFrames    int64 `json:"event_frames"`
	EventGateEvals int64 `json:"event_gate_evals"`
	Events         int64 `json:"events"`

	// ResimRetriesSkipped counts the portfolio retries whose
	// resimulation did not run: their trivial expansion took the same
	// steps as the failed proposed one, which refines it lane by lane,
	// so the retry could not detect either (DESIGN.md §26).
	ResimRetriesSkipped int64 `json:"resim_retries_skipped"`
}

// layout is the struct the counter table takes its offsets from.
var layout LiveSnapshot

// The Work counters are the rows whose offset lies in [workBase, workEnd).
const (
	workBase = unsafe.Offsetof(layout.Work)
	workEnd  = workBase + unsafe.Sizeof(layout.Work)
)

// runCounters is the counter table, in the order RegisterLiveCounters
// exposes the families.
var runCounters = [...]RunCounter{
	{"runs_started", "runs_started_total", "Whole-list runs started.", Count, unsafe.Offsetof(layout.RunsStarted)},
	{"runs_done", "runs_done_total", "Whole-list runs completed (including failed and canceled).", Count, unsafe.Offsetof(layout.RunsDone)},
	{"faults_total", "faults_total", "Faults submitted across all runs.", Count, unsafe.Offsetof(layout.FaultsTotal)},
	{"faults_done", "faults_done_total", "Faults classified so far.", Count, unsafe.Offsetof(layout.FaultsDone)},
	{"detected_conventional", "detected_conventional_total", "Faults detected by conventional simulation.", Count, unsafe.Offsetof(layout.Conv)},
	{"detected_mot", "detected_mot_total", "Faults detected by the MOT procedure beyond conventional.", Count, unsafe.Offsetof(layout.MOT)},
	{"pruned_condition_c", "pruned_condition_c_total", "Faults pruned by necessary condition (C).", Count, unsafe.Offsetof(layout.PrunedConditionC)},
	{"identified", "identified_total", "MOT detections established by identification alone (Section 3.2).", Count, unsafe.Offsetof(layout.Identified)},
	{"prescreen_passes", "prescreen_passes_total", "Bit-parallel prescreen batches simulated.", Count, unsafe.Offsetof(layout.PrescreenPasses)},
	{"prescreen_dropped", "prescreen_dropped_total", "Faults classified directly by the prescreen.", Count, unsafe.Offsetof(layout.PrescreenDropped)},
	{"prescreen_pruned_c", "prescreen_pruned_c_total", "Undetected faults the prescreen lanes pruned by condition (C).", Count, unsafe.Offsetof(layout.PrescreenPrunedC)},
	{"prescreen_frames", "prescreen_frames_total", "Time frames simulated by the bit-parallel prescreen.", Count, unsafe.Offsetof(layout.PrescreenFrames)},
	{"prescreen_saved_frames", "prescreen_saved_frames_total", "Time frames the bit-parallel prescreen skipped by its early exit.", Count, unsafe.Offsetof(layout.PrescreenSavedFrames)},
	{"prescreen_gate_evals", "prescreen_gate_evals_total", "Gates evaluated by the bit-parallel prescreen.", Count, unsafe.Offsetof(layout.PrescreenGateEvals)},
	{"mot_faults", "mot_faults_total", "Faults that entered the per-fault MOT pipeline.", Count, unsafe.Offsetof(layout.MOTFaults)},
	{"pairs", "pairs_total", "Candidate (time unit, state variable) pairs collected.", Count, unsafe.Offsetof(layout.Pairs)},
	{"expansions", "expansions_total", "Sequence-duplicating state expansions applied.", Count, unsafe.Offsetof(layout.Expansions)},
	{"sequences", "sequences_total", "State sequences at expansion stop, summed over faults.", Count, unsafe.Offsetof(layout.Sequences)},
	{"ctr_det", "ctr_det_total", "Table 3 det counter summed over MOT-detected faults.", Count, unsafe.Offsetof(layout.CtrDet)},
	{"ctr_conf", "ctr_conf_total", "Table 3 conf counter summed over MOT-detected faults.", Count, unsafe.Offsetof(layout.CtrConf)},
	{"ctr_extra", "ctr_extra_total", "Table 3 extra counter summed over MOT-detected faults.", Count, unsafe.Offsetof(layout.CtrExtra)},
	{"imply_calls", "imply_calls_total", "In-frame implication runs.", Count, unsafe.Offsetof(layout.ImplyCalls)},
	{"imply_lane_evals", "imply_lane_evals_total", "Gates evaluated by lane implication passes.", Count, unsafe.Offsetof(layout.ImplyLaneEvals)},
	{"imply_memo_hits", "imply_memo_hits_total", "Pair-collection pairs served from the fault-free lane memo.", Count, unsafe.Offsetof(layout.ImplyMemoHits)},
	{"resim_vector_passes", "resim_vector_passes_total", "Bit-parallel resimulation vector passes.", Count, unsafe.Offsetof(layout.ResimVectorPasses)},
	{"resim_vector_frames", "resim_vector_frames_total", "Time frames evaluated by bit-parallel resimulation.", Count, unsafe.Offsetof(layout.ResimVectorFrames)},
	{"resim_gate_evals", "resim_gate_evals_total", "Gates evaluated by bit-parallel resimulation.", Count, unsafe.Offsetof(layout.ResimGateEvals)},
	{"resim_retries_skipped", "resim_retries_skipped_total", "Portfolio retries skipped because the failed proposed expansion dominates them.", Count, unsafe.Offsetof(layout.ResimRetriesSkipped)},
	{"event_frames", "event_frames_total", "Sparse frames simulated by the event-driven evaluator.", Count, unsafe.Offsetof(layout.EventFrames)},
	{"event_gate_evals", "event_gate_evals_total", "Gate evaluations inside event-driven frames.", Count, unsafe.Offsetof(layout.EventGateEvals)},
	{"events", "events_total", "Node value changes propagated by the sparse evaluators.", Count, unsafe.Offsetof(layout.Events)},
	{"step0_ns", "stage_step0_seconds_total", "CPU time in step 0 (serial resim + condition C).", Nanoseconds, unsafe.Offsetof(layout.Step0NS)},
	{"collect_ns", "stage_collect_seconds_total", "CPU time in pair collection (Section 3.1).", Nanoseconds, unsafe.Offsetof(layout.CollectNS)},
	{"imply_ns", "stage_imply_seconds_total", "CPU time in implications (subset of collect).", Nanoseconds, unsafe.Offsetof(layout.ImplyNS)},
	{"expand_ns", "stage_expand_seconds_total", "CPU time in state expansion (Procedure 2).", Nanoseconds, unsafe.Offsetof(layout.ExpandNS)},
	{"resim_ns", "stage_resim_seconds_total", "CPU time in resimulation (Section 3.4).", Nanoseconds, unsafe.Offsetof(layout.ResimNS)},
	{"total_ns", "stage_mot_seconds_total", "Total CPU time in the per-fault MOT pipeline.", Nanoseconds, unsafe.Offsetof(layout.TotalNS)},
}

// RunCounters returns every run counter in exposition order.
func RunCounters() []RunCounter { return slices.Clone(runCounters[:]) }

// workCounters are the rows of Work's fields.
var workCounters = slices.DeleteFunc(RunCounters(), func(c RunCounter) bool {
	return c.off < workBase || c.off >= workEnd
})

// addRows adds the rows' fields of the struct at src to those of the
// struct at dst; both structs start at offset base of a LiveSnapshot.
func addRows(rows []RunCounter, dst, src unsafe.Pointer, base uintptr) {
	for i := range rows {
		*rows[i].at(dst, base) += *rows[i].at(src, base)
	}
}

// Add adds other to s, counter by counter.
func (s *LiveSnapshot) Add(other LiveSnapshot) {
	addRows(runCounters[:], unsafe.Pointer(s), unsafe.Pointer(&other), 0)
}

// Add adds other to w, counter by counter.
func (w *Work) Add(other Work) {
	addRows(workCounters, unsafe.Pointer(w), unsafe.Pointer(&other), workBase)
}
