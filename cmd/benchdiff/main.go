// Command benchdiff compares a `go test -bench` run against a recorded
// baseline (BENCH_*.json style) and flags regressions:
//
//	go test -run xxx -bench 'Table2|Prescreen' -benchmem -benchtime 2x -count 3 . > bench.out
//	benchdiff -baseline BENCH_PR2.json bench.out
//
// With no -baseline, the BENCH_PR<n>.json in the current directory with
// the highest PR number n is used, so the default always compares
// against the most recently recorded PR. (Modification times say
// nothing in a fresh checkout, where every file has the same one.)
//
// For every benchmark present in both the baseline's "after" section and
// the fresh run, it compares median ns/op and prints the delta; any
// slowdown beyond -threshold percent (default 10) makes the command exit
// nonzero. Benchmarks in the baseline but missing from the run are
// reported as warnings, never failures, so a restricted -bench pattern
// still works.
//
// -json FILE additionally writes the comparison as a machine-readable
// report (CI uploads it as an artifact); "-" sends the JSON to stdout
// instead of the text table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchEntry mirrors one benchmark record of the baseline JSON.
type benchEntry struct {
	NsPerOp     []float64 `json:"ns_per_op"`
	BytesPerOp  float64   `json:"bytes_per_op"`
	AllocsPerOp float64   `json:"allocs_per_op"`
}

// baselineFile mirrors the BENCH_PR2.json schema; only the "after"
// section (the current expected performance) is compared against.
type baselineFile struct {
	Description string                `json:"description"`
	Machine     string                `json:"machine"`
	After       map[string]benchEntry `json:"after"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline JSON file (compared against its \"after\" section); default: the BENCH_PR<n>.json with the highest n")
		threshold    = flag.Float64("threshold", 10, "flag slowdowns beyond this percentage")
		jsonPath     = flag.String("json", "", "also write the comparison as JSON to this file (- for stdout)")
	)
	flag.Parse()
	if *baselinePath == "" {
		p, err := newestBaseline(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		*baselinePath = p
		fmt.Fprintln(os.Stderr, "benchdiff: baseline", p)
	}
	in := os.Stdin
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "benchdiff: at most one bench-output file")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	rep, err := compare(in, *baselinePath, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	rep.writeText(os.Stdout)
	if *jsonPath != "" {
		if err := writeJSONReport(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
	}
	if !rep.OK {
		os.Exit(1)
	}
}

// writeJSONReport writes rep as indented JSON to path ("-" = stdout).
func writeJSONReport(path string, rep *diffReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// newestBaseline returns the BENCH_PR<n>.json file in dir with the
// highest PR number n: BENCH_PR17.json sorts after BENCH_PR9.json.
func newestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	if err != nil {
		return "", err
	}
	best, bestPR := "", -1
	for _, m := range matches {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_PR"), ".json")
		if pr, err := strconv.Atoi(num); err == nil && pr > bestPR {
			best, bestPR = m, pr
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_PR<n>.json baseline found in %s (pass -baseline)", dir)
	}
	return best, nil
}

// benchRow is one benchmark's comparison. Pointer fields are absent
// when the benchmark is missing from one side.
type benchRow struct {
	Name       string   `json:"name"`
	BaselineNs *float64 `json:"baseline_ns_per_op,omitempty"`
	CurrentNs  *float64 `json:"current_ns_per_op,omitempty"`
	DeltaPct   *float64 `json:"delta_pct,omitempty"`
	Regression bool     `json:"regression,omitempty"`
}

// diffReport is the full comparison: the text table and the -json
// artifact render from the same struct.
type diffReport struct {
	Baseline  string     `json:"baseline"`
	Threshold float64    `json:"threshold_pct"`
	OK        bool       `json:"ok"`
	Rows      []benchRow `json:"benchmarks"`
}

// run compares the bench output read from in against the baseline file;
// it returns false when a regression beyond threshold percent was found.
func run(out io.Writer, in io.Reader, baselinePath string, threshold float64) (bool, error) {
	rep, err := compare(in, baselinePath, threshold)
	if err != nil {
		return false, err
	}
	rep.writeText(out)
	return rep.OK, nil
}

// compare builds the diff report: baseline rows in name order, then
// baseline-less benchmarks in name order.
func compare(in io.Reader, baselinePath string, threshold float64) (*diffReport, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath, err)
	}
	if len(base.After) == 0 {
		return nil, fmt.Errorf("%s: no \"after\" benchmarks", baselinePath)
	}
	runs, err := parseBench(in)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input")
	}

	names := make([]string, 0, len(base.After))
	for name := range base.After {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := &diffReport{Baseline: baselinePath, Threshold: threshold, OK: true}
	for _, name := range names {
		baseMed := median(base.After[name].NsPerOp)
		row := benchRow{Name: name, BaselineNs: &baseMed}
		if got, present := runs[name]; present {
			gotMed := median(got)
			delta := 100 * (gotMed - baseMed) / baseMed
			row.CurrentNs, row.DeltaPct = &gotMed, &delta
			if delta > threshold {
				row.Regression = true
				rep.OK = false
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	extra := make([]string, 0, len(runs))
	for name := range runs {
		if _, known := base.After[name]; !known {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		gotMed := median(runs[name])
		rep.Rows = append(rep.Rows, benchRow{Name: name, CurrentNs: &gotMed})
	}
	return rep, nil
}

// writeText renders the human-readable comparison table.
func (rep *diffReport) writeText(out io.Writer) {
	fmt.Fprintf(out, "%-28s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, row := range rep.Rows {
		switch {
		case row.CurrentNs == nil:
			fmt.Fprintf(out, "%-28s %14.0f %14s %8s  (not in this run)\n", row.Name, *row.BaselineNs, "-", "-")
		case row.BaselineNs == nil:
			fmt.Fprintf(out, "%-28s %14s %14.0f %8s  (no baseline)\n", row.Name, "-", *row.CurrentNs, "-")
		default:
			mark := ""
			if row.Regression {
				mark = fmt.Sprintf("  REGRESSION (>%g%%)", rep.Threshold)
			}
			fmt.Fprintf(out, "%-28s %14.0f %14.0f %+7.1f%%%s\n", row.Name, *row.BaselineNs, *row.CurrentNs, *row.DeltaPct, mark)
		}
	}
	if rep.OK {
		fmt.Fprintf(out, "no regressions beyond %g%%\n", rep.Threshold)
	}
}

// parseBench extracts ns/op samples from `go test -bench` output, keyed
// by benchmark name with the -GOMAXPROCS suffix stripped. Repeated lines
// (from -count N) accumulate.
func parseBench(r io.Reader) (map[string][]float64, error) {
	runs := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Benchmark lines read: Name-P  N  ns op [bytes B/op allocs allocs/op]
		var ns float64
		found := false
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
				}
				ns, found = v, true
				break
			}
		}
		if !found {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		runs[name] = append(runs[name], ns)
	}
	return runs, sc.Err()
}

// median returns the middle sample (mean of the middle two for even
// counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
