package implic

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
)

// implySetup evaluates one sg298 frame with an all-X present state and
// returns the circuit, the base assignment, and the flip-flop indices
// whose D node stays unspecified — the assertions a pair collection would
// try.
func implySetup(b *testing.B) (*netlist.Circuit, []logic.Val, []int) {
	b.Helper()
	e, err := circuits.SuiteEntryByName("sg298")
	if err != nil {
		b.Fatal(err)
	}
	c := e.Build()
	pi := make([]logic.Val, c.NumInputs())
	for i := range pi {
		pi[i] = logic.FromBool(i%2 == 0)
	}
	ps := make([]logic.Val, c.NumFFs())
	for i := range ps {
		ps[i] = logic.X
	}
	base := make([]logic.Val, c.NumNodes())
	seqsim.EvalFrame(c, pi, ps, nil, base)
	var ffs []int
	for i := 0; i < c.NumFFs(); i++ {
		if base[c.FFs[i].D] == logic.X {
			ffs = append(ffs, i)
		}
	}
	if len(ffs) == 0 {
		b.Fatal("no unspecified next-state variables")
	}
	return c, base, ffs
}

// BenchmarkImplyReuse measures the trail path: one frame, and per round an
// assign -> imply -> UndoTo cycle for both values of every candidate
// flip-flop, as collectPairs performs at one time unit.
func BenchmarkImplyReuse(b *testing.B) {
	c, base, ffs := implySetup(b)
	fr := New(c, nil, base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ff := range ffs {
			for a := 0; a < 2; a++ {
				mark := fr.Mark()
				_ = fr.AssignNextState(ff, logic.Val(a)) && fr.ImplyTwoPass()
				fr.UndoTo(mark)
			}
		}
	}
}

// BenchmarkImplyNew measures the same workload with a frame freshly
// allocated per assertion, as the engine was used before the trail.
func BenchmarkImplyNew(b *testing.B) {
	c, base, ffs := implySetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ff := range ffs {
			for a := 0; a < 2; a++ {
				fr := New(c, nil, base)
				_ = fr.AssignNextState(ff, logic.Val(a)) && fr.ImplyTwoPass()
			}
		}
	}
}

// BenchmarkImplyLanes measures the lane kernel on the same frame and
// assertions as BenchmarkImplyReuse: per round one pass carrying both
// values of every candidate flip-flop, lane 2k+α asserting the k-th.
func BenchmarkImplyLanes(b *testing.B) {
	c, base, ffs := implySetup(b)
	lf := NewLaneFrame(cir.For(c))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lf.Begin(nil, base, 2*len(ffs))
		for k, ff := range ffs {
			lf.AssertNextState(ff, 2*k, logic.Zero)
			lf.AssertNextState(ff, 2*k+1, logic.One)
		}
		lf.Imply()
	}
}
