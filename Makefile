GO ?= go

.PHONY: all build test fmt-check check race race-fast fuzz fuzz-smoke bench bench-smoke bench-layers bench-e2e staticcheck serve-smoke replica-smoke spill-smoke soak-smoke examples-smoke docs-check experiments

all: build test

# run-tests runs `go test -run` over one package with an alternation of test
# name patterns, after checking with `go test -list` that every alternative
# still matches a test: a renamed test otherwise leaves its smoke target
# without anyone noticing.
# $(call run-tests,<package>,<pat1|pat2|…>[,<go test flags>[,<test binary flags>]])
define run-tests
	@for p in $(subst |, ,$(2)); do \
		$(GO) test -list "$$p" $(1) | grep -q '^Test' || { echo "$(1): -run alternative '$$p' matches no test" >&2; exit 1; }; \
	done
	$(GO) test $(3) $(1) -run '$(2)' -count=1 $(4)
endef

build:
	$(GO) build ./...

# gofmt is enforced: CI runs this before go vet.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:" >&2; gofmt -l . >&2; exit 1; }

# Replay one trial of the differential harness (DESIGN.md, "One oracle"):
# every failing assertion of internal/check/trial prints the command this
# runs, with the point that failed.
#   make check POINT='seed=7 catalog=siblings mode=dag budget=1 windows=5'
check:
	$(GO) test ./internal/check -run TestTrials -count=1 -v -check.point='$(POINT)'

# -shuffle=on randomizes test order within each package: tests that lean on
# sibling-test side effects fail here before they flake anywhere else.
test:
	$(GO) test -shuffle=on ./...

# Static analysis beyond go vet, when the tool is installed (CI installs
# it; locally this degrades to a notice instead of a hard dependency).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 \
		&& staticcheck ./... \
		|| echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"

# The docs that cannot drift from the code: EXPERIMENTS.md's generated block
# is byte for byte what the harness prints at the defaults, with the shape
# tests asserting the paper's claims on that same run; every Test, Fuzz,
# Benchmark and Example name that EXPERIMENTS.md, DESIGN.md, README.md and
# docs/TUTORIAL.md cite is a function of some _test.go; and cmd/experiments'
# usage errors and its -only output, a section of the block.
docs-check:
	$(call run-tests,./internal/experiments/,TestExperimentsMDIsTheOutput)
	$(call run-tests,.,TestDocsNameTestsThatExist)
	$(call run-tests,./cmd/experiments/,TestUnknownExperimentListsTheIDs|TestRetiredOutputFlagsAreUsageErrors|TestOnlyPrintsItsSectionOfTheBlock)

# Print EXPERIMENTS.md's generated block: every table and figure of the
# paper's evaluation at the defaults (SF 0.002, seed 7, change fraction 0.10).
experiments:
	@$(GO) run ./cmd/experiments

# Run the two example programs the README walks through: quickstart, and
# tpcd, which checks every strategy it runs against recomputation. The other
# lessons are Examples in example_test.go, which `go test` runs.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tpcd

# End-to-end smoke of the query daemon: every test of cmd/whserverd — a
# daemon with a fast window driver answering queries across flipping epochs
# and draining (TestServerLifecycle), a leader and two followers
# (TestReplicaSmoke), an ingesting leader drained mid-stream whose /stats and
# drain line count the ingester's windows (TestIngestDrainUnderLoad), the
# refused flag combinations (TestUsageErrors) and the pprof mux — and every
# test of internal/serve: admission, shedding, windows and their budgets, the
# HTTP surface and /stats.
serve-smoke:
	$(GO) test ./cmd/whserverd/ ./internal/serve/ -count=1

# End-to-end smoke of replication: TestReplicaSmoke — a whserverd leader with
# a fast window driver plus two -follow daemons whose lag drains to zero at an
# advanced epoch and whose /stats count the windows they applied — and every
# test of internal/replicate: ship and replay, chunked fetches, the writer's
# shippable mark, torn streams, failover, the golden chunk, and its table of
# replication points of the differential harness (internal/check; the race
# tier runs the package under the detector).
replica-smoke:
	$(call run-tests,./cmd/whserverd/,TestReplicaSmoke)
	$(GO) test ./internal/replicate/ -count=1

# End-to-end smoke of bounded-memory execution: the budget's accounting, the
# spill file format, frames of the journal's (corruption, truncation, injected I/O and
# ENOSPC faults), the core spill + partition-odometer path (a spilled build
# the window's cache keeps included), the recovery ladder under persistent
# spill faults, the facade's window counters and stale-spill-dir sweep, and
# the memory-budget points of the differential harness (internal/check): the
# root's table of them, and two starved streams on the sharing fixture
# replayed from their one-line points — one with the cache per Comp, one with
# sharing on, where every build spills and the window's cache keeps it for
# the sibling Comps that share it.
spill-smoke:
	$(GO) test ./internal/memory/ ./internal/storage/ -count=1
	$(call run-tests,./internal/core/,TestSpilled|TestBounded|TestSharedEntrySpills|TestWindowCacheKeepsBuilds|TestSpillENOSPC|TestCrashMidSpill|TestAttachMemory)
	$(call run-tests,./internal/recovery/,TestSpillFault)
	$(call run-tests,.,TestWindowCountersReportSpilling|TestCrashMidSpillSweptOnReopen|TestBoundedMemoryDifferential)
	$(call run-tests,./internal/check/,TestTrials,,-check.point='catalog=siblings mode=dag workers=3 budget=1 windows=5')
	$(call run-tests,./internal/check/,TestTrials,,-check.point='catalog=siblings mode=dag workers=3 share=true budget=1 windows=5')

# Fault-injected soak of the continuous-ingestion path, under the race
# detector: a paced producer drives micro-batch windows while probabilistic
# crash and transient faults fire at every journaled point; each crash is
# recovered in place and the final state must match a sequential oracle,
# with no goroutine leaks and no staleness runaway. The -soak flag sets the
# wall-clock duration (the package default is 1.5s for plain `make test`).
soak-smoke:
	$(call run-tests,./internal/ingest/,TestSoakIngest,-race,-soak 25s)

# The concurrency tier: the full suite under the race detector. The
# goroutines that run update windows live in two packages — internal/exec
# (the scheduler's workers, staged and DAG) and internal/core (the term
# engine's pool and sharded sinks, the window's build cache) — and
# internal/recovery and the facade drive both against shared warehouse
# state; running everything keeps the tier honest as coverage grows.
race:
	$(GO) test -race ./...

# Quick race pass over just those packages and the differential harness that
# drives them (internal/check: its sweep of drawn points, readers racing
# windows included), over the ones whose handles
# epochs share bucket by bucket while a window writes its clone (the
# copy-on-write container, the stores and accumulators on it, the journal
# writer DAG workers append through), over the ingester's producers, window
# loop and Close beside the replicas they ship to, and over the query server,
# whose /stats reads the window tally that commits write under the facade's
# lock.
race-fast:
	$(GO) test -race ./internal/core/... ./internal/exec/... ./internal/recovery/... ./internal/check/... .
	$(GO) test -race ./internal/cowmap/... ./internal/storage/... ./internal/delta/... ./internal/journal/...
	$(GO) test -race ./internal/ingest/... ./internal/replicate/... ./internal/serve/...

# Extended fuzzing of the conflict-order invariants (the seed corpus runs
# under plain `make test` already).
fuzz:
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzParallelizeRespectsConflicts -fuzztime 30s

# Short fuzz pass over the durability surfaces — the journal's reader, which
# reads the one log of accepted changes and windows, and the snapshot reader
# both consume arbitrary on-disk bytes and must reject corruption without
# panicking or mutating state — plus the SQL front end's old-vs-new
# differential oracle. Cheap enough for CI.
fuzz-smoke:
	$(GO) test ./internal/journal/ -run '^$$' -fuzz FuzzJournal -fuzztime 10s
	$(GO) test ./internal/snapshot/ -run '^$$' -fuzz FuzzSnapshotRead -fuzztime 10s
	$(GO) test ./internal/sqlparse/ -run '^$$' -fuzz FuzzParseDifferential -fuzztime 10s

bench:
	$(GO) test . -run '^$$' -bench . -benchtime 1x

# One-iteration pass over the Compute benchmarks with allocation stats:
# cheap enough for CI, and catches probe-path allocation regressions. The
# storage, state-digest and join-probe layer benchmarks (the Q3 probe chain
# through ORDER's and CUSTOMER's indexes among them) run once too, so that
# they keep compiling and executing between the runs of bench-layers that
# read them.
# Prune at m = 10 and 12 runs once as well, under a timeout: a search back to
# factorial growth (3.6 and 479 million orderings) hangs here, not in a slow
# plan-space. One journaled window against a disk whose flushes take 300 µs
# runs once too, and so does the resident-bytes benchmark: the TPC-D
# warehouse at the repository benchmark's scale, its live heap after set-up
# and after 20 windows, and LINEITEM's bytes per stored row.
bench-smoke:
	$(GO) test . -run '^$$' -bench 'BenchmarkCompute' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkResidentBytes' -benchtime 1x
	$(GO) test ./internal/planner -run '^$$' -bench 'BenchmarkPruneScaling/m=1[02]$$' -benchtime 1x -benchmem -timeout 30s
	$(GO) test ./internal/storage -run '^$$' -bench . -benchtime 1x -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'Probe' -benchtime 1x -benchmem
	$(GO) test ./internal/recovery -run '^$$' -bench 'StateDigest|JournaledWindow' -benchtime 1x -benchmem

# The layer microbenchmarks of the packages that own a window's phases
# (docs/PERF.md quotes them): plan search against VDAG size, table scan /
# clone / load / apply (rows and groups), join index build / apply, join
# build and probe (flat table, resident index, and Q3's chain of two index
# steps, ns per driver row), state digest (the fold a
# window pays beside the scan it replaced), a window journaled to a disk whose
# flushes take 300 µs beside the same window unjournaled (the difference is
# about one flush of the two it makes: syncs/op), and the live heap of the
# TPC-D warehouse at the repository benchmark's scale after set-up and after
# 20 windows, with LINEITEM's bytes per stored row. Five samples each,
# with allocations; the planner's also report prefixes priced per search, the
# storage, core and state-digest ones ns/row.
bench-layers:
	$(GO) test . -run '^$$' -bench 'BenchmarkResidentBytes' -count 5
	$(GO) test ./internal/planner -run '^$$' -bench 'PruneScaling|PruneShared|MinWorkScaling' -count 5 -benchmem
	$(GO) test ./internal/storage -run '^$$' -bench . -count 5 -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'BuildTable|Probe' -count 5 -benchmem
	$(GO) test ./internal/recovery -run '^$$' -bench 'StateDigest|JournaledWindow' -count 5 -benchmem

# The repository benchmark (BENCHMARK.json, bench/README.md): each of the
# four workloads once, end-to-end metrics only, appended to E2E_OUT. With
# PARENT=<file of runs of the parent commit made the same way> the two sets
# are then judged against the benchmark's bounds. One run a side is a smoke
# check; a claim needs ten alternating pairs (docs/PERF.md).
E2E_WORKLOADS = batch-seq batch-dag-bounded plan-space serve-ingest
E2E_OUT      ?= bench/out/e2e.jsonl
E2E_SEED     ?= 1

bench-e2e:
	@mkdir -p $(dir $(abspath $(E2E_OUT)))
	for w in $(E2E_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed $(E2E_SEED) --seconds 20 --trace 0 -out $(abspath $(E2E_OUT)) || exit 1; \
	done
	@if [ -n "$(PARENT)" ]; then bash bench/run.sh -compare $(abspath $(PARENT)) $(abspath $(E2E_OUT)); fi
