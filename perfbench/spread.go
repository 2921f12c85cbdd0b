package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spreadMain checks repeated runs of one workload against the bounds in
// BENCHMARK.json: every end-to-end metric but setup_s must have a
// quartile spread within its bound, and with -base no median may be
// worse than the base runs' by more than its bound.
func spreadMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spread", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	basePath := fs.String("base", "", "result lines of the same workload on the parent code")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want one file of result lines, got %d", fs.NArg())
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	cur, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	var base map[string][]float64
	if *basePath != "" {
		if base, err = readRuns(*basePath); err != nil {
			return err
		}
	}
	var problems []error
	fmt.Fprintf(out, "%-16s %3s %14s %8s %8s  %s\n", "metric", "n", "median", "spread", "bound", "verdict")
	for _, d := range def.EndToEnd {
		vals := cur[d.Name]
		sp, err := spread(vals)
		if err != nil {
			problems = append(problems, fmt.Errorf("%s: %w", d.Name, err))
			continue
		}
		med := median(vals)
		verdict := "steady"
		switch {
		case d.Name == "setup_s":
			verdict = "spread not bounded"
		case sp > d.Bound:
			verdict = "TOO NOISY"
			problems = append(problems, fmt.Errorf("%s: spread %.4f exceeds bound %g", d.Name, sp, d.Bound))
		case sp > d.Bound/3:
			verdict = "within bound, above a third of it"
		}
		if base != nil {
			bmed := median(base[d.Name])
			w, err := worse(bmed, med, d.Better, d.Bound)
			if err != nil {
				return err
			}
			verdict += fmt.Sprintf("; base median %.6g", bmed)
			if w {
				verdict += " WORSE"
				problems = append(problems, fmt.Errorf("%s: median %.6g worse than base %.6g by more than %g", d.Name, med, bmed, d.Bound))
			}
		}
		fmt.Fprintf(out, "%-16s %3d %14.6g %8.4f %8.4f  %s\n", d.Name, len(vals), med, sp, d.Bound, verdict)
	}
	return errors.Join(problems...)
}

// readRuns reads result lines, one JSON object per line (other lines are
// ignored), into the values of each metric; every run must be correct.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run not correct (%d of %d failed)", path, n, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	return vals, sc.Err()
}
