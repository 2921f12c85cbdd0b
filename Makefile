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
# overlays and schedules over the compiled circuit's shared position
# view), the shared compiled-IR reads in internal/cir (one CC, many
# goroutines with their own evaluators: TestPositionsParallel), the
# metric registry scrapes under concurrent writers, the serve run
# registry, the cross-run LRU cache under concurrent submitters, the
# xtrace span buffers (per-worker writers merging into one tracer while
# exports/scrapes read it), the rolling-window SLO aggregators
# (lock-free Observe racing slot rotation and scrapes), histogram
# exemplar slots (CAS writers racing exposition reads), and the
# mutex-guarded live snapshot (workers publishing while Snapshot scrapes).
RACE_PATTERN := Parallel|Prescreen|CrossCheck|Server|Span|Event|Window|Exemplar|Live
RACE_PKGS    := . ./internal/core ./internal/bitsim ./internal/cir ./internal/seqsim ./internal/metrics ./internal/serve ./internal/cache ./internal/xtrace

.PHONY: build test vet race fuzz perfbench-test verify bench bench-lite bench-collect benchdiff trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -run '$(RACE_PATTERN)' $(RACE_PKGS)

# Fuzz the event kernels and the whole run for FUZZTIME each, beyond
# their seed corpora (which `go test` already runs): FrameDelta and the
# divergence-driven step 0 against the full pass, lane implications
# against the serial frame, the fault-free lane memo and bit-parallel
# resimulation against their references, and whole runs against the
# exhaustive oracle. Go fuzzes one target per invocation.
FUZZTIME ?= 15s
FUZZ_TARGETS := \
	./internal/seqsim:FuzzEventSimFrameDelta \
	./internal/seqsim:FuzzDivergenceMatchesFullPass \
	./internal/implic:FuzzImplyLanes \
	./internal/core:FuzzCollectMemo \
	./internal/core:FuzzResimCrossCheck \
	./internal/oracle:FuzzOracleSoundness

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) $${t%%:*}; \
	done

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
# regression probe — plus the step-0 layer bench on sg15850 and the
# pair-collection and resimulation layer benches on sg5378. Combine
# with benchdiff:
#   make bench-lite | tee benchdiff.out
#   go run ./cmd/benchdiff benchdiff.out   # baseline: highest BENCH_PR<n>.json
bench-lite:
	$(GO) test -run xxx -bench 'Table2_sg298|PrescreenOn_sg298|LiveOverhead|ResimBitParallel|Step0_sg15850' -benchmem -benchtime 2x -count 3 .
	$(GO) test -run xxx -bench 'CollectPairs_sg5378|Resim_sg5378' -benchmem -benchtime 2x -count 3 ./internal/core

# Sample span trace of a fully sampled sg298 run, loadable in
# ui.perfetto.dev or chrome://tracing. CI uploads it as an artifact.
trace:
	$(GO) run ./cmd/motfsim -circuit sg298 -random 144 -workers 4 -span-trace sg298.trace.json -span-sample 1

# Pair-collection and implication micro-benchmarks: collection of one
# sg298 fault (CollectPairs) and of every sg5378 pipeline fault with the
# fault-free lane memo's build (CollectPairs_sg5378), the lane passes
# (ImplyLanes) against the serial trail frame (ImplyReuse) and a fresh
# frame per call (ImplyNew); the whole per-fault pipeline
# (SimulateList); and the bit-parallel resimulation kernel on one sg1423
# fault (ResimulateVV) and on both passes of every sg5378 pipeline fault
# (Resim_sg5378).
bench-collect:
	$(GO) test -run xxx -bench 'CollectPairs|SimulateList|ResimulateVV|Resim_sg5378' -benchmem ./internal/core
	$(GO) test -run xxx -bench 'ImplyReuse|ImplyNew|ImplyLanes' -benchmem ./internal/implic

# Fresh whole-list bench run compared against a recorded baseline; fails
# on any median slowdown beyond 10%. With no BENCH_BASELINE, benchdiff
# picks the BENCH_PR<n>.json with the highest n; set BENCH_BASELINE=BENCH_PR2.json (etc.)
# to compare against a specific PR.
BENCH_BASELINE ?=
benchdiff:
	$(GO) test -run xxx -bench 'Table2|Prescreen|ResimBitParallel|Conventional' -benchmem -benchtime 2x -count 3 . | tee benchdiff.out
	$(GO) run ./cmd/benchdiff $(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) benchdiff.out
