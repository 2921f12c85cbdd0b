package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/xtrace"
)

// defaultTraceSampleRate is the per-fault sampling rate when
// Config.TraceSampleRate is zero: 1 fault in 20 gets a span, enough to
// see the heavy tail of the per-fault cost distribution without paying
// span overhead on every fault.
const defaultTraceSampleRate = 0.05

// spanScope is the span scaffolding of one whole-list run: the run span
// and the prescreen/MOT stage spans, all on one "run" track, plus the
// sampling rate the per-fault spans use. A nil *spanScope (tracing off)
// is valid everywhere.
type spanScope struct {
	tr    *xtrace.Tracer
	main  *xtrace.Buffer
	rate  float64
	run   xtrace.Ref
	runID xtrace.SpanID
	stage xtrace.Ref
	// stageID is the live stage span's ID; fault and batch spans parent
	// here (not under the scheduling-dependent worker spans) so parent
	// links are identical across worker counts.
	stageID xtrace.SpanID
}

// beginRunSpans opens the run span, or returns nil when Config.Tracer
// is unset.
func (s *Simulator) beginRunSpans(faults int) *spanScope {
	tr := s.cfg.Tracer
	if tr == nil {
		return nil
	}
	rate := s.cfg.TraceSampleRate
	if rate == 0 {
		rate = defaultTraceSampleRate
	}
	sc := &spanScope{tr: tr, main: tr.NewTrack("run"), rate: rate}
	sc.run = sc.main.Begin("run "+s.c.Name, 0, 0)
	sc.runID = sc.main.ID(sc.run)
	sc.main.AttrInt(sc.run, "faults", int64(faults))
	return sc
}

// beginStage opens a stage span ("prescreen", "mot") under the run span
// and returns its ID for child spans.
func (sc *spanScope) beginStage(name string) xtrace.SpanID {
	if sc == nil {
		return 0
	}
	sc.stage = sc.main.Begin(name, sc.runID, 0)
	sc.stageID = sc.main.ID(sc.stage)
	return sc.stageID
}

// endStage closes the current stage span.
func (sc *spanScope) endStage() {
	if sc != nil {
		sc.main.End(sc.stage)
	}
}

// finish closes the run span with outcome attributes and flushes the
// run track.
func (sc *spanScope) finish(res *Result) {
	if sc == nil {
		return
	}
	sc.main.AttrInt(sc.run, "conv", res.Conv)
	sc.main.AttrInt(sc.run, "mot", res.MOT)
	sc.main.End(sc.run)
	sc.main.Flush()
}

// workerSpans drives one fault-loop worker's per-fault spans on its
// own track, plus a "worker" span covering its whole claim loop — the
// one span kind whose membership depends on scheduling, which is why
// it is recorded at close time via Tracer.Record rather than held open
// in the buffer (an open span would block the buffer's incremental
// flushes).
type workerSpans struct {
	tr      *xtrace.Tracer
	buf     *xtrace.Buffer
	rate    float64
	stageID xtrace.SpanID
	w       int
	start   int64
	fref    xtrace.Ref
	faults  int64
}

// worker returns the span driver for fault-loop worker w, on track
// "worker NN". Nil scope → nil driver.
func (sc *spanScope) worker(w int) *workerSpans {
	if sc == nil {
		return nil
	}
	return &workerSpans{
		tr: sc.tr, buf: sc.tr.NewTrack(fmt.Sprintf("worker %02d", w)),
		rate: sc.rate, stageID: sc.stageID,
		w: w, start: sc.tr.Now(),
	}
}

// close flushes the track and records the worker span.
func (ws *workerSpans) close() {
	if ws == nil {
		return
	}
	ws.buf.Flush()
	ws.tr.Record(xtrace.Span{
		ID:     xtrace.DeriveID(ws.stageID, "worker", uint64(ws.w)),
		Parent: ws.stageID,
		Name:   "worker",
		Track:  ws.buf.Track(),
		Start:  ws.start,
		Dur:    ws.tr.Now() - ws.start,
		Attrs:  []xtrace.Attr{{Key: "faults", Val: fmt.Sprint(ws.faults)}},
	})
}

// begin opens the span for fault k if k is sampled, arming the
// simulator's sub-span hooks (expand/resim) for this fault.
func (ws *workerSpans) begin(s *Simulator, k int, f fault.Fault) {
	if ws == nil {
		return
	}
	ws.faults++
	if !xtrace.SampleAt(ws.rate, k) {
		return
	}
	ws.fref = ws.buf.Begin("fault", ws.stageID, uint64(k))
	ws.buf.AttrInt(ws.fref, "k", int64(k))
	ws.buf.Attr(ws.fref, "fault", f.Name(s.c))
	s.tbuf, s.span = ws.buf, ws.buf.ID(ws.fref)
}

// end closes the current fault span (no-op when fault k was unsampled)
// with the outcome attributes.
func (ws *workerSpans) end(s *Simulator, o *FaultOutcome) {
	if ws == nil || s.span == 0 {
		return
	}
	ws.buf.Attr(ws.fref, "outcome", o.Outcome.String())
	ws.buf.AttrInt(ws.fref, "pairs", int64(o.Pairs))
	ws.buf.AttrInt(ws.fref, "seqs", int64(o.Sequences))
	sim := s.rec.simTrace()
	ws.buf.AttrInt(ws.fref, "sim_frames", sim.Frames)
	ws.buf.AttrInt(ws.fref, "sim_events", sim.Events)
	ws.buf.AttrInt(ws.fref, "sim_gate_evals", sim.GateEvals)
	ws.buf.End(ws.fref)
	s.tbuf, s.span = nil, 0
}

// beginPhase opens an expand/resim sub-span under the active fault span.
// Unsampled faults (span 0, the common case) pay one comparison.
func (s *Simulator) beginPhase(name string, key uint64) xtrace.Ref {
	if s.span == 0 {
		return 0
	}
	return s.tbuf.Begin(name, s.span, key)
}

// endPhase closes a sub-span opened by beginPhase.
func (s *Simulator) endPhase(ref xtrace.Ref) {
	if ref != 0 {
		s.tbuf.End(ref)
	}
}
