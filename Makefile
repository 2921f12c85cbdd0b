# Verify recipe from ROADMAP.md. `make verify` is the full gate:
# build + tests + vet + race tests over the parallel and prescreen
# paths.

GO ?= go

# Test names covering code that runs concurrently or reuses pooled state:
# RunParallel scheduling, the golden per-fault traces at 1 and 4 workers
# and the parallel pool-isolation run (pools must be per-worker, never
# shared), the bit-parallel prescreen, the reference cross-checks of pair
# collection and bit-parallel resimulation (per-worker lane evaluators
# and lane columns), the event-driven evaluator tests (per-worker
# EventEval scratch and shared schedules), the shared compiled-IR reads
# in internal/cir,
# metric registry scrapes under concurrent writers, the serve run
# registry, the cross-run LRU cache under concurrent submitters, the
# xtrace span buffers (per-worker writers merging into one tracer while
# exports/scrapes read it), the rolling-window SLO aggregators
# (lock-free Observe racing slot rotation and scrapes), and histogram
# exemplar slots (CAS writers racing exposition reads).
RACE_PATTERN := Parallel|Prescreen|CrossCheck|Server|Span|Event|Window|Exemplar
RACE_PKGS    := . ./internal/core ./internal/bitsim ./internal/cir ./internal/seqsim ./internal/metrics ./internal/serve ./internal/cache ./internal/xtrace

.PHONY: build test vet race perfbench-test verify bench bench-lite bench-collect benchdiff trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -run '$(RACE_PATTERN)' $(RACE_PKGS)

# The benchmark has its own module (perfbench/go.mod), so the root
# `go test ./...` never compiles it: vet and test it in place, so an
# internal API change cannot break `bash perfbench/run.sh` unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

verify: build test vet race perfbench-test

# Whole-list MOT benchmarks (Table 2 circuits) with allocation stats.
bench:
	$(GO) test -run xxx -bench 'Table2|Prescreen|ResimBitParallel|Conventional' -benchmem -benchtime 2x -count 3 .

# Quick sg298-only slice of the whole-list benchmarks — the CI-sized
# regression probe. Combine with benchdiff:
#   make bench-lite | tee benchdiff.out
#   go run ./cmd/benchdiff benchdiff.out   # baseline: highest BENCH_PR<n>.json
bench-lite:
	$(GO) test -run xxx -bench 'Table2_sg298|PrescreenOn_sg298|LiveOverhead|ResimBitParallel' -benchmem -benchtime 2x -count 3 .

# Sample span trace of a fully sampled sg298 run, loadable in
# ui.perfetto.dev or chrome://tracing. CI uploads it as an artifact.
trace:
	$(GO) run ./cmd/motfsim -circuit sg298 -random 144 -workers 4 -span-trace sg298.trace.json -span-sample 1

# Pair-collection and implication micro-benchmarks: the lane passes
# (CollectPairs, ImplyLanes) against the serial trail frame (ImplyReuse)
# and a fresh frame per call (ImplyNew); the whole per-fault pipeline
# (SimulateList); and the bit-parallel resimulation kernel
# (ResimulateVV).
bench-collect:
	$(GO) test -run xxx -bench 'CollectPairs|SimulateList|ResimulateVV' -benchmem ./internal/core
	$(GO) test -run xxx -bench 'ImplyReuse|ImplyNew|ImplyLanes' -benchmem ./internal/implic

# Fresh whole-list bench run compared against a recorded baseline; fails
# on any median slowdown beyond 10%. With no BENCH_BASELINE, benchdiff
# picks the BENCH_PR<n>.json with the highest n; set BENCH_BASELINE=BENCH_PR2.json (etc.)
# to compare against a specific PR.
BENCH_BASELINE ?=
benchdiff:
	$(GO) test -run xxx -bench 'Table2|Prescreen|ResimBitParallel|Conventional' -benchmem -benchtime 2x -count 3 . | tee benchdiff.out
	$(GO) run ./cmd/benchdiff $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) benchdiff.out
