// Command motstats prints structural and testability diagnostics for a
// circuit: size statistics, SCOAP-style controllability/observability
// summaries, structural observability/controllability sets, sequential
// depth, and (for small circuits) exact oracle detectability counts.
// With -mot it also runs the proposed MOT procedure over the collapsed
// fault list and prints the per-stage time breakdown, counters and
// per-fault histograms.
//
//	motstats -circuit s27
//	motstats -bench design.bench -oracle -random 32
//	motstats -circuit sg298 -mot -random 144 -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/oracle"
	"repro/internal/report"
	"repro/internal/testability"
)

// runOptions collects everything run needs; main fills it from flags,
// tests construct it directly.
type runOptions struct {
	benchPath string
	builtin   string
	useOracle bool
	randomLen int
	seed      int64
	worst     int
	mot       bool
	workers   int
	spans     bool
	top       int

	// -watch mode: poll a motserve (or -metrics-addr sidecar) /metrics
	// endpoint and render the live dashboard instead of analyzing a
	// circuit.
	watchURL    string
	watchPrefix string
	interval    time.Duration
	once        bool
	frames      int // tests bound the frame count; 0 = until interrupted

	out io.Writer // nil: os.Stdout
}

func main() {
	var o runOptions
	flag.StringVar(&o.benchPath, "bench", "", "ISCAS-89 .bench netlist file")
	flag.StringVar(&o.builtin, "circuit", "", "built-in circuit name")
	flag.BoolVar(&o.useOracle, "oracle", false, "run the exhaustive detectability oracle (small circuits only)")
	flag.IntVar(&o.randomLen, "random", 32, "sequence length for the oracle and -mot runs")
	flag.Int64Var(&o.seed, "seed", 1, "sequence seed for the oracle and -mot runs")
	flag.IntVar(&o.worst, "worst", 5, "list the N hardest-to-observe nodes")
	flag.BoolVar(&o.mot, "mot", false, "run the proposed MOT procedure and print the per-stage breakdown")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "worker goroutines for the -mot run")
	flag.BoolVar(&o.spans, "spans", false, "trace every fault of the -mot run and print the top-K stragglers by wall time")
	flag.IntVar(&o.top, "top", 10, "straggler rows to print with -spans")
	flag.StringVar(&o.watchURL, "watch", "", "live dashboard over a motserve base URL or metrics address (e.g. localhost:8080)")
	flag.StringVar(&o.watchPrefix, "watch-prefix", "motserve", "metric-name prefix of the watched exposition")
	flag.DurationVar(&o.interval, "interval", 2*time.Second, "refresh interval for -watch")
	flag.BoolVar(&o.once, "once", false, "print one -watch snapshot and exit (automatic without a TTY)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "motstats:", err)
		os.Exit(1)
	}
}

func run(o runOptions) error {
	if o.watchURL != "" {
		return runWatch(o)
	}
	if o.out == nil {
		o.out = os.Stdout
	}
	var (
		c   *motsim.Circuit
		err error
	)
	switch {
	case o.benchPath != "":
		c, err = motsim.LoadBench(o.benchPath)
	case o.builtin != "":
		c, err = motsim.BuiltinCircuit(o.builtin)
	default:
		return fmt.Errorf("need -bench FILE or -circuit NAME")
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(o.out, c.Stats())

	obs := c.ObservableNodes()
	ctrl := c.ControllableNodes()
	nObs, nCtrl := 0, 0
	for n := 0; n < c.NumNodes(); n++ {
		if obs[n] {
			nObs++
		}
		if ctrl[n] {
			nCtrl++
		}
	}
	fmt.Fprintf(o.out, "structural: %d/%d observable, %d/%d input-controllable\n",
		nObs, c.NumNodes(), nCtrl, c.NumNodes())

	depth := c.SequentialDepth()
	maxDepth, unreachable := 0, 0
	for _, d := range depth {
		if d < 0 {
			unreachable++
		} else if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Fprintf(o.out, "sequential depth: max %d, %d flip-flops unreachable from inputs\n", maxDepth, unreachable)

	m := testability.Compute(c)
	fmt.Fprintln(o.out, "SCOAP:", m.Summarize(c))
	if o.worst > 0 {
		type hard struct {
			name string
			co   int32
		}
		var hs []hard
		for n := 0; n < c.NumNodes(); n++ {
			if m.CO[n] < testability.Inf {
				hs = append(hs, hard{c.NodeName(int32ToNode(n)), m.CO[n]})
			}
		}
		for i := 0; i < len(hs); i++ {
			for j := i + 1; j < len(hs); j++ {
				if hs[j].co > hs[i].co {
					hs[i], hs[j] = hs[j], hs[i]
				}
			}
		}
		if len(hs) > o.worst {
			hs = hs[:o.worst]
		}
		fmt.Fprintln(o.out, "hardest finite observabilities:")
		for _, h := range hs {
			fmt.Fprintf(o.out, "  %-10s CO=%d\n", h.name, h.co)
		}
	}

	if o.useOracle {
		T := motsim.RandomSequence(c, o.randomLen, o.seed)
		orc, err := oracle.New(c, T)
		if err != nil {
			return err
		}
		counts, _, err := orc.DecideAll(motsim.CollapsedFaults(c))
		if err != nil {
			return err
		}
		fmt.Fprintf(o.out, "oracle (%d random patterns): %d faults, conventional=%d restrictedMOT=%d fullMOT=%d\n",
			o.randomLen, counts.Total, counts.Conventional, counts.RestrictedMOT, counts.FullMOT)
	}

	if o.mot {
		return runMOT(o, c)
	}
	return nil
}

// runMOT simulates the collapsed fault list under the proposed procedure
// with metrics on and prints the instrumentation report.
func runMOT(o runOptions, c *motsim.Circuit) error {
	if o.randomLen <= 0 {
		return fmt.Errorf("-mot needs -random N > 0")
	}
	if o.workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", o.workers)
	}
	T := motsim.RandomSequence(c, o.randomLen, o.seed)
	faults := motsim.CollapsedFaults(c)
	cfg := motsim.DefaultConfig()
	// Publish live snapshots so the report's live section renders the
	// same counters as the merged stats (asserted by the report tests).
	cfg.Live = &motsim.LiveStats{}
	var tracer *motsim.Tracer
	if o.spans {
		// Stragglers need every fault's wall time, so sample at 1.0.
		tracer = motsim.NewTracer(motsim.TracerOptions{})
		cfg.Tracer = tracer
		cfg.TraceSampleRate = 1
	}
	s, err := motsim.New(c, T, cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := s.RunParallel(faults, o.workers, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(o.out, "MOT run (%d random patterns, %d workers, %s): %d faults, conventional=%d MOT-extra=%d undetected=%d\n",
		o.randomLen, o.workers, elapsed.Round(time.Millisecond),
		res.Total, res.Conv, res.MOT, res.Undetected())
	fmt.Fprint(o.out, report.FormatRunStats(res))
	if tracer != nil {
		spans, _ := tracer.Snapshot()
		fmt.Fprint(o.out, report.FormatStragglers(spans, o.top))
	}
	return nil
}

func int32ToNode(n int) motsim.NodeID { return motsim.NodeID(n) }
