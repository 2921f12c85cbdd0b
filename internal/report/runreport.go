package report

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/seqsim"
)

// RunReport is the machine-readable summary of one whole-fault-list run,
// emitted by the CLIs under -json. Every duration is in nanoseconds so
// the schema is language-neutral.
type RunReport struct {
	Circuit  string `json:"circuit"`
	Method   string `json:"method"`
	Faults   int    `json:"faults"`
	Patterns int    `json:"patterns"`
	Workers  int    `json:"workers"`

	Conv       int     `json:"detected_conventional"`
	MOT        int     `json:"detected_mot"`
	Detected   int     `json:"detected_total"`
	Coverage   float64 `json:"coverage"`
	Identified int     `json:"identified"`
	PrunedC    int     `json:"pruned_condition_c"`
	Expansions int     `json:"expansions"`
	Pairs      int     `json:"pairs"`
	Sequences  int     `json:"sequences"`

	ElapsedNS int64        `json:"elapsed_ns"`
	Stages    StagesReport `json:"stages"`
	// Histograms is present only when the run collected metrics.
	Histograms *HistogramsReport `json:"histograms,omitempty"`
}

// StagesReport is the JSON view of core.Stages. PrescreenNS and MOTNS
// are wall-clock; the per-stage breakdown is summed across workers (CPU
// time) and present only when the run collected metrics.
type StagesReport struct {
	PrescreenPasses      int   `json:"prescreen_passes"`
	PrescreenDropped     int   `json:"prescreen_dropped"`
	PrescreenPrunedC     int   `json:"prescreen_pruned_c"`
	PrescreenFrames      int64 `json:"prescreen_frames"`
	PrescreenSavedFrames int64 `json:"prescreen_saved_frames"`
	PrescreenGateEvals   int64 `json:"prescreen_gate_evals"`
	PrescreenNS          int64 `json:"prescreen_ns"`
	CompileNS            int64 `json:"compile_ns"`
	MOTNS                int64 `json:"mot_ns"`

	Step0NS   int64 `json:"step0_ns"`
	CollectNS int64 `json:"collect_ns"`
	ImplyNS   int64 `json:"imply_ns"`
	ExpandNS  int64 `json:"expand_ns"`
	ResimNS   int64 `json:"resim_ns"`

	ImplyCalls        int64 `json:"imply_calls"`
	ImplyLaneEvals    int64 `json:"imply_lane_evals"`
	ResimVectorPasses int64 `json:"resim_vector_passes"`
	ResimVectorFrames int64 `json:"resim_vector_frames"`
	ResimGateEvals    int64 `json:"resim_gate_evals"`
	// ResimSerialFallbacks is always 0: every expansion resimulates
	// bit-parallel. The field stays because the benchmark harness
	// (perfbench) reads it for its core.resim_serial_fallbacks row.
	ResimSerialFallbacks int64 `json:"resim_serial_fallbacks"`

	MOTFaults int             `json:"mot_faults"`
	Pool      core.PoolStats  `json:"pool"`
	Sim       seqsim.SimStats `json:"sim"`
}

// HistogramsReport holds the per-fault distribution snapshots.
type HistogramsReport struct {
	PairsPerFault        metrics.Snapshot `json:"pairs_per_fault"`
	ExpansionsPerFault   metrics.Snapshot `json:"expansions_per_fault"`
	SequencesAtStop      metrics.Snapshot `json:"sequences_at_stop"`
	FaultTimeNS          metrics.Snapshot `json:"fault_time_ns"`
	ConeGatesPerFault    metrics.Snapshot `json:"cone_gates_per_fault"`
	ResimLanesPerPass    metrics.Snapshot `json:"resim_lanes_per_pass"`
	EventsPerFrame       metrics.Snapshot `json:"events_per_frame"`
	GatesVisitedPerFrame metrics.Snapshot `json:"gates_visited_per_frame"`
}

// NewRunReport builds the JSON summary from a run result.
func NewRunReport(res *core.Result, method string, patterns, workers int, elapsed time.Duration) RunReport {
	st := res.Stages
	r := RunReport{
		Circuit:    res.Circuit,
		Method:     method,
		Faults:     res.Total,
		Patterns:   patterns,
		Workers:    workers,
		Conv:       res.Conv,
		MOT:        res.MOT,
		Detected:   res.Detected(),
		Identified: res.Identified,
		PrunedC:    res.PrunedConditionC,
		Expansions: res.Expansions,
		Pairs:      res.Pairs,
		Sequences:  res.Sequences,
		ElapsedNS:  int64(elapsed),
		Stages: StagesReport{
			PrescreenPasses:      st.PrescreenPasses,
			PrescreenDropped:     st.PrescreenDropped,
			PrescreenPrunedC:     st.PrescreenPrunedC,
			PrescreenFrames:      st.PrescreenFrames,
			PrescreenSavedFrames: st.PrescreenSavedFrames,
			PrescreenGateEvals:   st.PrescreenGateEvals,
			PrescreenNS:          int64(st.PrescreenTime),
			CompileNS:            int64(st.CompileTime),
			MOTNS:                int64(st.MOTTime),
			Step0NS:              int64(st.Step0Time),
			CollectNS:            int64(st.CollectTime),
			ImplyNS:              int64(st.ImplyTime),
			ExpandNS:             int64(st.ExpandTime),
			ResimNS:              int64(st.ResimTime),
			ImplyCalls:           st.ImplyCalls,
			ImplyLaneEvals:       st.ImplyLaneEvals,
			ResimVectorPasses:    st.ResimVectorPasses,
			ResimVectorFrames:    st.ResimVectorFrames,
			ResimGateEvals:       st.ResimGateEvals,
			MOTFaults:            st.MOTFaults,
			Pool:                 st.Pool,
			Sim:                  st.Sim,
		},
	}
	if res.Total > 0 {
		r.Coverage = float64(res.Detected()) / float64(res.Total)
	}
	if m := res.Metrics; m != nil {
		r.Histograms = &HistogramsReport{
			PairsPerFault:        m.PairsPerFault.Snapshot(),
			ExpansionsPerFault:   m.ExpansionsPerFault.Snapshot(),
			SequencesAtStop:      m.SequencesAtStop.Snapshot(),
			FaultTimeNS:          m.FaultTimeNS.Snapshot(),
			ConeGatesPerFault:    m.ConeGatesPerFault.Snapshot(),
			ResimLanesPerPass:    m.ResimLanesPerPass.Snapshot(),
			EventsPerFrame:       m.EventsPerFrame.Snapshot(),
			GatesVisitedPerFrame: m.GatesVisitedPerFrame.Snapshot(),
		}
	}
	return r
}

// JSON renders the report as indented JSON with a trailing newline.
func (r RunReport) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// pct renders part as a percentage of whole.
func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// FormatRunStats renders the per-stage breakdown, pool gauges and
// per-fault histograms of a run as indented text (empty when the run
// collected no metrics beyond the coarse stage split).
func FormatRunStats(res *core.Result) string {
	st := res.Stages
	var sb strings.Builder
	if st.MOTFaults == 0 && res.Metrics == nil {
		return ""
	}
	cpu := st.Step0Time + st.CollectTime + st.ExpandTime + st.ResimTime
	fmt.Fprintf(&sb, "  stage breakdown (%d MOT-pipeline faults, CPU time across workers):\n", st.MOTFaults)
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"step0 resim + cond(C)", st.Step0Time},
		{"pair collection", st.CollectTime},
		{"  implications (est.)", st.ImplyTime},
		{"expansion", st.ExpandTime},
		{"resimulation", st.ResimTime},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "    %-24s %12s  %6s\n", r.name, r.d.Round(time.Microsecond), pct(r.d, cpu))
	}
	fmt.Fprintf(&sb, "    %-24s %12s\n", "total (CPU)", cpu.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  implication calls: %d (%d lane gate evals)\n", st.ImplyCalls, st.ImplyLaneEvals)
	if st.ResimVectorPasses > 0 {
		fmt.Fprintf(&sb, "  bit-parallel resim: %d vector passes over %d frames (%d gate evals)\n",
			st.ResimVectorPasses, st.ResimVectorFrames, st.ResimGateEvals)
	}
	if st.PrescreenFrames > 0 {
		fmt.Fprintf(&sb, "  prescreen frames: %d simulated, %d saved by early exit (%d gate evals)\n",
			st.PrescreenFrames, st.PrescreenSavedFrames, st.PrescreenGateEvals)
	}
	if sim := st.Sim; sim.EventFrames+sim.FullFrames > 0 {
		fmt.Fprintf(&sb, "  serial sim frames: %d event (%d gate evals, %d events), %d full\n",
			sim.EventFrames, sim.EventGateEvals, sim.Events, sim.FullFrames)
	}
	if p := st.Pool; p != (core.PoolStats{}) {
		fmt.Fprintf(&sb, "  pools: frames %d reused / %d allocated; traces %d reused / %d allocated\n",
			p.FrameReuses, p.FrameAllocs, p.TraceReuses, p.TraceAllocs)
		fmt.Fprintf(&sb, "  arena peaks: sv=%d svIdx=%d liveSeqs=%d\n",
			p.SVArenaPeak, p.SVIdxArenaPeak, p.SeqLivePeak)
	}
	if m := res.Metrics; m != nil {
		fmt.Fprintf(&sb, "  pairs/fault:      %s\n", m.PairsPerFault.Snapshot())
		fmt.Fprintf(&sb, "  expansions/fault: %s\n", m.ExpansionsPerFault.Snapshot())
		fmt.Fprintf(&sb, "  sequences @stop:  %s\n", m.SequencesAtStop.Snapshot())
		fmt.Fprintf(&sb, "  cone gates/fault: %s\n", m.ConeGatesPerFault.Snapshot())
		if lanes := m.ResimLanesPerPass.Snapshot(); lanes.Count > 0 {
			fmt.Fprintf(&sb, "  resim lanes/pass: %s\n", lanes)
		}
		if ev := m.EventsPerFrame.Snapshot(); ev.Count > 0 {
			fmt.Fprintf(&sb, "  events/frame:     %s\n", ev)
			fmt.Fprintf(&sb, "  gates/frame:      %s\n", m.GatesVisitedPerFrame.Snapshot())
		}
		fmt.Fprintf(&sb, "  fault time:       %s\n", m.FaultTimeNS.Snapshot().DurationString())
	}
	if res.Live != nil {
		fmt.Fprint(&sb, FormatLiveSnapshot(res.Live.Snapshot()))
	}
	return sb.String()
}

// FormatLiveSnapshot renders a live snapshot in the FormatRunStats
// idiom. After a run completes the counter lines render exactly the
// merged Result/Stages values (the stage-seconds line is a wall-clock
// measurement and may differ from the Stages durations).
func FormatLiveSnapshot(s core.LiveSnapshot) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  live snapshot (%d/%d runs, %d/%d faults):\n",
		s.RunsDone, s.RunsStarted, s.FaultsDone, s.FaultsTotal)
	fmt.Fprintf(&sb, "    detected: %d conventional + %d MOT, %d undetected (%d pruned by condition C)\n",
		s.Conv, s.MOT, s.Undetected(), s.PrunedConditionC)
	fmt.Fprintf(&sb, "    prescreen: %d passes dropped %d faults, pruned %d by condition C (%d frames, %d gate evals)\n",
		s.PrescreenPasses, s.PrescreenDropped, s.PrescreenPrunedC, s.PrescreenFrames, s.PrescreenGateEvals)
	fmt.Fprintf(&sb, "    pipeline: %d faults, %d pairs, %d expansions, %d sequences, %d implication calls (%d lane gate evals)\n",
		s.MOTFaults, s.Pairs, s.Expansions, s.Sequences, s.ImplyCalls, s.ImplyLaneEvals)
	fmt.Fprintf(&sb, "    bit-parallel resim: %d vector passes over %d frames (%d gate evals)\n",
		s.ResimVectorPasses, s.ResimVectorFrames, s.ResimGateEvals)
	fmt.Fprintf(&sb, "    serial sim frames: %d event (%d gate evals, %d events), %d full\n",
		s.EventFrames, s.EventGateEvals, s.Events, s.FullFrames)
	fmt.Fprintf(&sb, "    stage seconds: step0=%.3f collect=%.3f (imply~%.3f) expand=%.3f resim=%.3f total=%.3f\n",
		float64(s.Step0NS)/1e9, float64(s.CollectNS)/1e9, float64(s.ImplyNS)/1e9,
		float64(s.ExpandNS)/1e9, float64(s.ResimNS)/1e9, float64(s.TotalNS)/1e9)
	return sb.String()
}

// ResultAttrs returns slog key-value pairs summarizing a run result,
// for structured run-completion logs (cmd/motserve threads these
// through its per-run logger).
func ResultAttrs(res *core.Result) []any {
	coverage := 0.0
	if res.Total > 0 {
		coverage = float64(res.Detected()) / float64(res.Total)
	}
	return []any{
		"circuit", res.Circuit,
		"faults", res.Total,
		"conv", res.Conv,
		"mot", res.MOT,
		"coverage", coverage,
		"pruned_c", res.PrunedConditionC,
		"mot_faults", res.Stages.MOTFaults,
		"imply_calls", res.Stages.ImplyCalls,
	}
}
