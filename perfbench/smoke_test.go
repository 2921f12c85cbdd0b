package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every path of the benchmark briefly on small inputs:
// the MOT and the conventional-only batch paths on the sg298 stand-in,
// and serve-mix for a fraction of a second, each untraced and traced.
// Every run must be correct and report exactly its metrics.
func TestSmoke(t *testing.T) {
	runs := map[string]func(opts) (*outcome, error){
		"mot":       batchSpec{"smoke-mot", "sg298", 32, true}.run,
		"conv-only": batchSpec{"smoke-conv", "sg298", 32, false}.run,
		"serve-mix": runServeMix,
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := opts{seed: 3, seconds: 0.2, traced: traced, spansPath: filepath.Join(t.TempDir(), "spans.jsonl"), out: &out}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, &out)
			}
			line, err := result(res, metricsFor(res, traced))
			if err != nil || !line.Correct {
				t.Errorf("%s traced=%v: %v, %+v\n%s", name, traced, err, line, &out)
			}
			if fi, err := os.Stat(o.spansPath); traced && (err != nil || fi.Size() == 0) {
				t.Errorf("%s: no spans written (%v)", name, err)
			}
		}
	}
}

func TestBenchMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "conv-only", "--trace", "2"},
		{"--workload", "conv-only", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code, err := benchMain(args, &out); code != 2 || err == nil {
			t.Errorf("%v: exit %d, %v; want 2 and an error", args, code, err)
		}
	}
}
