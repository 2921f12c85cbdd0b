package bitsim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/seqsim"
	"repro/internal/tgen"
)

// FuzzPrescreenMatchesSerial is the differential check of the prescreen
// lanes against the serial simulator. Each input picks a generated
// circuit shaped as in FuzzOracleSoundness (1-3 inputs and outputs, at
// most 6 flip-flops, some of them free, 8-40 gates) and a sequence of at
// most 8 patterns with some inputs at X. pick draws a random subset of
// the uncollapsed fault list, repeated one to three times and shuffled,
// so batches mix stems and branches in any order and the last one is
// partial, and a worker count of 1 to 3. Every fault's RunConditionC
// result must equal seqsim's, and its (C) verdict the serial N_sv/N_out
// profile of its faulty trace.
func FuzzPrescreenMatchesSerial(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(4), uint8(0), uint8(6), uint8(6), int64(3), int64(1))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(0), uint8(13), uint8(6), int64(7), int64(2))
	f.Add(uint8(1), uint8(3), uint8(6), uint8(2), uint8(32), uint8(8), int64(7), int64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(1), int64(4))
	f.Fuzz(func(t *testing.T, inputs, outputs, ffs, free, gates, length uint8, seed, pick int64) {
		p := circuits.GenParams{
			Name:    "fuzz",
			Inputs:  1 + int(inputs%3),
			Outputs: 1 + int(outputs%3),
			FFs:     int(ffs % 7),
			Gates:   8 + int(gates%33),
			Seed:    seed,
		}
		p.FreeFFs = int(free) % (p.FFs + 1)
		p.Gates = max(p.Gates, p.FFs-p.FreeFFs+p.Outputs)
		c, err := circuits.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(pick))
		T := tgen.Random(c.NumInputs(), 1+int(length%8), seed)
		for _, pat := range T {
			for i := range pat {
				if rng.Intn(8) == 0 {
					pat[i] = logic.X
				}
			}
		}
		var list []fault.Fault
		all := fault.List(c)
		for copies := 1 + rng.Intn(3); copies > 0; copies-- {
			for _, fl := range all {
				if rng.Intn(4) != 0 {
					list = append(list, fl)
				}
			}
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		s := seqsim.New(c)
		good, err := s.Run(T, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		pass := good
		if rng.Intn(2) == 0 {
			pass = nil
		}
		workers := 1 + rng.Intn(3)
		res, failsC, _, err := RunConditionC(context.Background(), c, T, pass, list, workers, Trace{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := s.RunFaults(T, good, list)
		if err != nil {
			t.Fatal(err)
		}
		for k, fl := range list {
			if res[k] != serial[k] {
				t.Fatalf("%+v: fault %d %s (%d workers): lanes %+v, serial %+v", p, k, fl.Name(c), workers, res[k], serial[k])
			}
			want := false
			if !serial[k].Detected {
				bad, _, _, err := s.RunFault(T, good, fl, false)
				if err != nil {
					t.Fatal(err)
				}
				want = !serialConditionC(good, bad)
			}
			if failsC[k] != want {
				t.Fatalf("%+v: fault %d %s (%d workers): lane failsC=%v, serial profile %v", p, k, fl.Name(c), workers, failsC[k], want)
			}
		}
	})
}

// serialConditionC reports the paper's necessary condition (C) from the
// full faulty trace bad of an undetected fault: some u < L has an X
// state variable (N_sv(u) > 0) while some output at u' >= u is binary in
// good and X in bad (N_out(u) > 0).
func serialConditionC(good, bad *seqsim.Trace) bool {
	outX := false
	for u := len(bad.Outputs) - 1; u >= 0; u-- {
		for j, g := range good.Outputs[u] {
			if g.IsBinary() && bad.Outputs[u][j] == logic.X {
				outX = true
			}
		}
		if outX && logic.CountX(bad.States[u]) > 0 {
			return true
		}
	}
	return false
}
