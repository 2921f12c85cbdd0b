package motsim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// goldenTrace regenerates the per-fault JSONL trace `motfsim -circuit
// name -random 64 -seed 4 -trace FILE` writes, on the given number of
// workers.
func goldenTrace(t *testing.T, name string, workers int) []byte {
	t.Helper()
	c, err := BuiltinCircuit(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.TraceWriter = &buf
	sim, err := New(c, RandomSequence(c, 64, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunParallel(CollapsedFaults(c), workers, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceParallel compares the per-fault traces of sg298 and
// sg641 against recordings committed under testdata/, at one and four
// workers. The recordings pin every per-fault outcome and counter —
// pairs, expansions, Table 3 counters, and the resimulation and step-0
// work counts — so an engine change that claims byte-identical results
// must leave them untouched. Regenerate a file only for a change that
// is meant to alter outcomes or counters:
//
//	go run ./cmd/motfsim -circuit sg641 -random 64 -seed 4 -trace testdata/golden_sg641.jsonl
func TestGoldenTraceParallel(t *testing.T) {
	for _, name := range []string{"sg298", "sg641"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				got := goldenTrace(t, name, workers)
				if bytes.Equal(got, want) {
					return
				}
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("trace has %d lines, golden has %d", len(gl), len(wl))
			})
		}
	}
}

// goldenCircuits is the Table 2/3 golden subset: every suite circuit
// whose proposed and baseline runs finish well under a second together.
var goldenCircuits = []string{"sg208", "sg298", "sg344", "sg420", "sg641", "sg713", "sg1423"}

// TestGoldenTables regenerates the Table 2 and Table 3 CSV rows of the
// golden subset at one and four workers and compares them byte for
// byte with testdata/golden_table2.csv and golden_table3.csv. The rows
// are deterministic counts (detections, and the Section 3.3 averages),
// so an engine change that claims identical outputs must keep them.
// Regenerate a file only for a change meant to alter outcomes; the
// files are the CSV lines of
//
//	go run ./cmd/mottables -table 2 -csv -circuits sg208,sg298,sg344,sg420,sg641,sg713,sg1423
//
// (and -table 3) without the title and shape lines.
func TestGoldenTables(t *testing.T) {
	want2, err := os.ReadFile(filepath.Join("testdata", "golden_table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want3, err := os.ReadFile(filepath.Join("testdata", "golden_table3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runs, err := experiments.RunSuite(goldenCircuits, experiments.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := report.CSVTable2(experiments.Table2Rows(runs)); got != string(want2) {
				t.Errorf("Table 2 rows differ:\n got %s\nwant %s", got, want2)
			}
			if got := report.CSVTable3(experiments.Table3Rows(runs)); got != string(want3) {
				t.Errorf("Table 3 rows differ:\n got %s\nwant %s", got, want3)
			}
		})
	}
}
