package bitsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqsim"
	"repro/internal/tgen"
	"repro/internal/workpool"
)

func TestVVHelpers(t *testing.T) {
	one := cir.Broadcast(logic.One)
	zero := cir.Broadcast(logic.Zero)
	x := cir.Broadcast(logic.X)
	if one.Lane(0) != logic.One || zero.Lane(63) != logic.Zero || x.Lane(5) != logic.X {
		t.Fatal("broadcast/lane wrong")
	}
	if one.Not().Lane(3) != logic.Zero {
		t.Fatal("not wrong")
	}
	if cir.And2(one, x).Lane(0) != logic.X || cir.And2(zero, x).Lane(0) != logic.Zero {
		t.Fatal("and2 three-valued semantics wrong")
	}
	if cir.Or2(one, x).Lane(0) != logic.One || cir.Or2(zero, x).Lane(0) != logic.X {
		t.Fatal("or2 three-valued semantics wrong")
	}
	if cir.Xor2(one, x).Lane(0) != logic.X || cir.Xor2(one, zero).Lane(0) != logic.One {
		t.Fatal("xor2 three-valued semantics wrong")
	}
}

func TestBatchTooLarge(t *testing.T) {
	c := circuits.S27()
	faults := make([]fault.Fault, Lanes)
	if err := newEvaluator(cir.For(c), nil).load(faults, siteOrder(cir.For(c), faults)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestPatternWidthChecked(t *testing.T) {
	c := circuits.S27()
	T := seqsim.Sequence{{logic.One}}
	if _, err := Run(c, T, fault.CollapsedList(c)); err == nil {
		t.Fatal("narrow pattern accepted")
	}
}

// TestGateEvalMatchesScalar cross-checks the evaluator's gate fold
// against logic.Eval lane by lane for random lane values on every
// input, stamped live in an event frame.
func TestGateEvalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for trial := 0; trial < 200; trial++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not && op != logic.Buf {
			n = 2 + rng.Intn(3)
		}
		// Build a tiny circuit with one gate.
		b := netlist.NewBuilder("g1")
		ins := make([]netlist.NodeID, n)
		for i := range ins {
			ins[i] = b.Input(fmt.Sprintf("i%d", i))
		}
		b.Gate(op, "y", ins...)
		b.Output("y")
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cc := cir.For(c)
		e := newEvaluator(cc, nil)
		e.beginFrame(make([]logic.Val, cc.NumNodes()), false)
		// Random lane values per input.
		scalar := make([][]logic.Val, n)
		for i, id := range ins {
			scalar[i] = make([]logic.Val, Lanes)
			for k := 0; k < Lanes; k++ {
				v := logic.Val(rng.Intn(3))
				scalar[i][k] = v
				e.vals[id].SetLane(uint(k), v)
			}
			e.ov.Mark(id)
		}
		one, zero := e.eval(0)
		out := VV{One: one, Zero: zero}
		in := make([]logic.Val, n)
		for k := 0; k < Lanes; k++ {
			for i := range in {
				in[i] = scalar[i][k]
			}
			want := logic.Eval(op, in)
			if got := out.Lane(uint(k)); got != want {
				t.Fatalf("op %v lane %d: got %v, want %v (inputs %v)", op, k, got, want, in)
			}
		}
	}
}

// randomCircuit mirrors the helper used across packages.
func randomCircuit(rng *rand.Rand, nPI, nFF, nGates int) (*netlist.Circuit, error) {
	b := netlist.NewBuilder("rand")
	var pool []netlist.NodeID
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.Input(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < nFF; i++ {
		pool = append(pool, b.FlipFlop(fmt.Sprintf("q%d", i), b.Signal(fmt.Sprintf("d%d", i))))
	}
	ops := []logic.Op{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Not}
	for i := 0; i < nGates; i++ {
		op := ops[rng.Intn(len(ops))]
		n := 1
		if op != logic.Not {
			n = 2 + rng.Intn(2)
		}
		ins := make([]netlist.NodeID, n)
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		var name string
		if i < nFF {
			name = fmt.Sprintf("d%d", i)
		} else {
			name = fmt.Sprintf("g%d", i)
		}
		pool = append(pool, b.Gate(op, name, ins...))
	}
	for i := 0; i < 2 && i < nGates-nFF; i++ {
		b.Output(fmt.Sprintf("g%d", nGates-1-i))
	}
	return b.Build()
}

// TestRunMatchesSerial is the central property: bit-parallel results must
// equal the serial simulator's fault by fault, including detection sites.
func TestRunMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 0
	for trials < 20 {
		c, err := randomCircuit(rng, 3, 4, 10+rng.Intn(25))
		if err != nil {
			continue
		}
		trials++
		T := make(seqsim.Sequence, 8)
		for u := range T {
			p := make(seqsim.Pattern, c.NumInputs())
			for i := range p {
				p[i] = logic.FromBool(rng.Intn(2) == 1)
			}
			T[u] = p
		}
		faults := fault.List(c) // full list: exercises branch faults too
		fast, err := Run(c, T, faults)
		if err != nil {
			t.Fatal(err)
		}
		s := seqsim.New(c)
		good, err := s.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := s.RunFaults(T, good, faults)
		if err != nil {
			t.Fatal(err)
		}
		for k := range faults {
			if fast[k].Detected != slow[k].Detected {
				t.Fatalf("trial %d fault %s: bitsim detected=%v serial=%v",
					trials, faults[k].Name(c), fast[k].Detected, slow[k].Detected)
			}
			if fast[k].Detected && fast[k].At != slow[k].At {
				t.Fatalf("trial %d fault %s: bitsim at %+v serial at %+v",
					trials, faults[k].Name(c), fast[k].At, slow[k].At)
			}
		}
	}
}

func TestRunS27AllFaults(t *testing.T) {
	c := circuits.S27()
	T := make(seqsim.Sequence, 40)
	rng := rand.New(rand.NewSource(9))
	for u := range T {
		p := make(seqsim.Pattern, 4)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	faults := fault.List(c)
	fast, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := seqsim.New(c)
	good, _ := s.Run(T, nil, true)
	slow, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	for k := range faults {
		if fast[k].Detected != slow[k].Detected {
			t.Fatalf("fault %s differs", faults[k].Name(c))
		}
	}
}

// TestManyBatches covers the multi-batch path (more than 255 faults).
func TestManyBatches(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
	prev := "a"
	for i := 0; i < 120; i++ {
		src += fmt.Sprintf("n%d = XOR(%s, b)\n", i, prev)
		prev = fmt.Sprintf("n%d", i)
	}
	src += fmt.Sprintf("y = BUFF(%s)\n", prev)
	c, err := bench.ParseString("chain", src)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.List(c)
	if len(faults) <= Lanes {
		t.Fatalf("need more than %d faults, got %d", Lanes, len(faults))
	}
	T := seqsim.Sequence{{logic.One, logic.Zero}, {logic.Zero, logic.One}, {logic.One, logic.One}}
	fast, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := seqsim.New(c)
	good, _ := s.Run(T, nil, true)
	slow, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	for k := range faults {
		if fast[k].Detected != slow[k].Detected || (fast[k].Detected && fast[k].At != slow[k].At) {
			t.Fatalf("fault %s differs across batches", faults[k].Name(c))
		}
	}
}

func TestBatches(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 255: 1, 256: 2, 510: 2, 511: 3}
	for n, want := range cases {
		if got := Batches(n); got != want {
			t.Errorf("Batches(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRunParallelMatchesRun checks the sharded batch runner against the
// serial batch loop on a multi-batch fault list.
func TestRunParallelMatchesRun(t *testing.T) {
	c := circuits.S27()
	T := make(seqsim.Sequence, 24)
	rng := rand.New(rand.NewSource(41))
	for u := range T {
		p := make(seqsim.Pattern, 4)
		for i := range p {
			p[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		T[u] = p
	}
	// Repeat the full list so several batches are needed.
	var faults []fault.Fault
	for i := 0; i < 16; i++ {
		faults = append(faults, fault.List(c)...)
	}
	if Batches(len(faults)) < 2 {
		t.Fatalf("need at least 2 batches, got %d", Batches(len(faults)))
	}
	serial, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		par, err := RunParallel(c, T, faults, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range faults {
			if par[k] != serial[k] {
				t.Fatalf("workers=%d fault %d: parallel %+v != serial %+v",
					workers, k, par[k], serial[k])
			}
		}
	}
	// Errors propagate out of the pool.
	bad := append(seqsim.Sequence{}, T...)
	bad[len(bad)-1] = bad[len(bad)-1][:2]
	if _, err := RunParallel(c, bad, faults, 4); err == nil {
		t.Fatal("broken sequence not reported")
	}
}

// TestRunHonoursFFInit checks that the lanes load the power-up state
// from the compiled FFInit like the serial simulator: with q powering
// up at 1 and d = AND(q, a) held at a = 1, the fault-free machine is
// specified from frame 0, so q/SA0 is detected at frame 0 — under an
// all-X start neither engine could detect anything.
func TestRunHonoursFFInit(t *testing.T) {
	b := netlist.NewBuilder("init1")
	a := b.Input("a")
	q := b.FlipFlop("q", b.Signal("d"))
	b.Gate(logic.And, "d", q, a)
	b.Gate(logic.Buf, "y", q)
	b.Output("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.FFs[0].Init = logic.One // before the first compile
	T := seqsim.Sequence{{logic.One}, {logic.One}, {logic.One}}
	faults := fault.List(c)
	fast, err := Run(c, T, faults)
	if err != nil {
		t.Fatal(err)
	}
	s := seqsim.New(c)
	good, err := s.Run(T, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for k := range faults {
		if fast[k] != slow[k] {
			t.Errorf("fault %s: bitsim %+v, serial %+v", faults[k].Name(c), fast[k], slow[k])
		}
		if fast[k].Detected {
			detected++
		}
	}
	if detected == 0 {
		t.Error("no fault detected: the power-up value was not honoured")
	}
}

// TestRunConditionCParallelMatchesRunStats runs the prescreen entry
// point on circuits large enough that most gates stay off the event
// schedule, at 1 and 3 workers, with a caller-supplied fault-free trace
// and with nil (simulated inside): the results, the (C) verdicts and
// every work counter must agree, and equal RunStats'.
func TestRunConditionCParallelMatchesRunStats(t *testing.T) {
	for _, name := range []string{"sg641", "sg1423"} {
		e, err := circuits.SuiteEntryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build()
		T := tgen.Random(c.NumInputs(), 32, e.SeqSeed)
		faults := fault.CollapsedList(c)
		want, wantSt, err := RunStats(c, T, faults, 1)
		if err != nil {
			t.Fatal(err)
		}
		good, err := seqsim.New(c).Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		var wantC []bool
		for _, workers := range []int{1, 3} {
			for _, g := range []*seqsim.Trace{good, nil} {
				res, failsC, st, err := RunConditionC(context.Background(), c, T, g, faults, workers, Trace{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("%s workers=%d trace=%v: results differ from RunStats", name, workers, g != nil)
				}
				if st != wantSt {
					t.Fatalf("%s workers=%d trace=%v: stats %+v, RunStats %+v", name, workers, g != nil, st, wantSt)
				}
				if wantC == nil {
					wantC = failsC
				} else if !reflect.DeepEqual(failsC, wantC) {
					t.Fatalf("%s workers=%d trace=%v: (C) verdicts differ", name, workers, g != nil)
				}
			}
		}
		dense := wantSt.Frames * int64(len(c.Gates))
		t.Logf("%s: %d gate evals over %d frames, %.1f%% of a dense sweep", name, wantSt.GateEvals, wantSt.Frames,
			100*float64(wantSt.GateEvals)/float64(dense))
		if name == "sg1423" && wantSt.GateEvals >= dense {
			t.Errorf("%s: %d gate evals, dense sweep is %d: the event driver never skipped a gate", name, wantSt.GateEvals, dense)
		}
	}
}

// TestRunConditionCTraceTooShort checks that a fault-free trace that
// does not cover the sequence is refused.
func TestRunConditionCTraceTooShort(t *testing.T) {
	c := circuits.S27()
	T := tgen.Random(c.NumInputs(), 8, 1)
	good, err := seqsim.New(c).Run(T[:4], nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RunConditionC(context.Background(), c, T, good, fault.CollapsedList(c), 1, Trace{}); err == nil {
		t.Fatal("short fault-free trace accepted")
	}
}

// TestSiteOrder checks siteOrder against its contract: a permutation
// of the list, site keys ascending, ties in list order. It covers
// sg5378's collapsed list and a long list, thirteen copies of
// sg35932's (over 2^18 faults on 5604 gates), whose key and index
// together need more than 31 bits.
func TestSiteOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		copies int
	}{{"sg5378", 1}, {"sg35932", 13}} {
		c, err := circuits.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		cc := cir.For(c)
		var faults []fault.Fault
		for i := 0; i < tc.copies; i++ {
			faults = append(faults, fault.CollapsedList(c)...)
		}
		order := siteOrder(cc, faults)
		seen := make([]bool, len(faults))
		for k, i := range order {
			if seen[i] {
				t.Fatalf("%s: index %d repeats", tc.name, i)
			}
			seen[i] = true
			if k == 0 {
				continue
			}
			prev := order[k-1]
			if a, b := sitePos(cc, &faults[prev]), sitePos(cc, &faults[i]); a > b || a == b && prev > i {
				t.Fatalf("%s: entry %d (fault %d, site %d) after fault %d (site %d)", tc.name, k, i, b, prev, a)
			}
		}
		if len(order) != len(faults) {
			t.Fatalf("%s: %d entries for %d faults", tc.name, len(order), len(faults))
		}
	}
}

// TestRunConditionCOrderInvariantParallel feeds the prescreen one fault
// list in four orders (list order, reversed, rotated, shuffled) at 1 and
// 4 workers. sg641's collapsed list fills five batches and part of a
// sixth. Every fault must get the serial simulator's result and the same
// (C) verdict in every run, wherever it sits in the list, and the batch
// count must not move.
func TestRunConditionCOrderInvariantParallel(t *testing.T) {
	c, err := circuits.ByName("sg641")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	if n := len(faults); n <= 2*(Lanes-1) || n%(Lanes-1) == 0 {
		t.Fatalf("%d faults: want more than two batches and a partial tail", n)
	}
	T := tgen.Random(c.NumInputs(), 32, 5)
	s := seqsim.New(c)
	good, err := s.Run(T, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := s.RunFaults(T, good, faults)
	if err != nil {
		t.Fatal(err)
	}
	n, detected := len(faults), 0
	for _, r := range serial {
		if r.Detected {
			detected++
		}
	}
	if detected == 0 || detected == n {
		t.Fatalf("%d of %d faults detected: the result check is vacuous", detected, n)
	}
	perms := map[string][]int{"list": make([]int, n), "reversed": make([]int, n), "rotated": make([]int, n)}
	for k := range faults {
		perms["list"][k] = k
		perms["reversed"][k] = n - 1 - k
		perms["rotated"][k] = (k + 100) % n
	}
	perms["shuffled"] = rand.New(rand.NewSource(8)).Perm(n)
	var wantC []bool
	var wantBatches int64
	for _, name := range []string{"list", "reversed", "rotated", "shuffled"} {
		perm := perms[name]
		list := make([]fault.Fault, n)
		for k, i := range perm {
			list[k] = faults[i]
		}
		for _, workers := range []int{1, 4} {
			res, failsC, st, err := RunConditionC(context.Background(), c, T, good, list, workers, Trace{})
			if err != nil {
				t.Fatal(err)
			}
			if wantC == nil {
				wantC, wantBatches = make([]bool, n), st.Batches
				fails := 0
				for k, i := range perm {
					wantC[i] = failsC[k]
					if failsC[k] {
						fails++
					}
				}
				if fails == 0 || fails == n {
					t.Fatalf("%d of %d faults fail (C): the verdict check is vacuous", fails, n)
				}
			}
			if st.Batches != wantBatches {
				t.Errorf("%s workers=%d: %d batches, want %d", name, workers, st.Batches, wantBatches)
			}
			if rs, _, err := RunStats(c, T, list, workers); err != nil || !reflect.DeepEqual(rs, res) {
				t.Fatalf("%s workers=%d: RunStats results differ from RunConditionC (err %v)", name, workers, err)
			}
			for k, i := range perm {
				if res[k].Fault != faults[i] || res[k].Detected != serial[i].Detected || res[k].At != serial[i].At {
					t.Fatalf("%s workers=%d: fault %s at %d: %+v, serial %+v", name, workers, faults[i].Name(c), k, res[k], serial[i])
				}
				if failsC[k] != wantC[i] {
					t.Fatalf("%s workers=%d: fault %s at %d: failsC=%v, list order %v", name, workers, faults[i].Name(c), k, failsC[k], wantC[i])
				}
			}
		}
	}
}

// TestRunConditionCPanicParallel breaks one branch fault of sg641's
// multi-batch list (its pin lies past the gate's inputs, so loading its
// batch panics) and asserts that the prescreen returns an error wrapping
// workpool.ErrPanic with the panic value and the stack, at 1 and 4
// workers, and leaves no worker goroutine behind.
func TestRunConditionCPanicParallel(t *testing.T) {
	c, err := circuits.ByName("sg641")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedList(c)
	if Batches(len(faults)) < 2 {
		t.Fatalf("%d faults fill one batch", len(faults))
	}
	for k := range faults {
		if !faults[k].IsStem() {
			faults[k].Pin = 1 << 30
			break
		}
	}
	T := tgen.Random(c.NumInputs(), 16, 5)
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		res, failsC, _, err := RunConditionC(context.Background(), c, T, nil, faults, workers, Trace{})
		if !errors.Is(err, workpool.ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want a contained panic", workers, err)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "panic: runtime error: index out of range") || !strings.Contains(msg, "goroutine ") {
			t.Errorf("workers=%d: error carries no panic value or stack: %.200s", workers, msg)
		}
		if res != nil || failsC != nil {
			t.Errorf("workers=%d: panicking run returned results", workers)
		}
	}
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the panicking runs, %d before", n, base)
	}
}

// TestRunConditionCCanceledParallel runs the prescreen under a done
// context: no batch runs and the call returns the context's error.
func TestRunConditionCCanceledParallel(t *testing.T) {
	c, err := circuits.ByName("sg641")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	T := tgen.Random(c.NumInputs(), 16, 5)
	for _, workers := range []int{1, 4} {
		_, _, st, err := RunConditionC(ctx, c, T, nil, fault.CollapsedList(c), workers, Trace{})
		if !errors.Is(err, context.Canceled) || st.Batches != 0 {
			t.Errorf("workers=%d: err = %v after %d batches, want context.Canceled after none", workers, err, st.Batches)
		}
	}
}
