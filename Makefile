GO ?= go

.PHONY: all build test fmt-check check race race-fast fuzz fuzz-smoke bench bench-smoke bench-layers bench-e2e staticcheck serve-smoke replica-smoke soak-smoke docs-check experiments

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

# run-benches runs `go test -bench` over one package with an alternation of
# benchmark name patterns, after checking with `go test -list` that every
# alternative still matches a benchmark — by its top-level name, the part
# before the first "/", which is all -list sees: a renamed benchmark otherwise
# leaves bench-smoke running nothing, and passing.
# $(call run-benches,<package>,<pat1|pat2|…>[,<go test flags>])
define run-benches
	@set -f; for p in $(subst |, ,$(2)); do \
		$(GO) test -list "$${p%%/*}" $(1) | grep -q '^Benchmark' || { echo "$(1): -bench alternative '$$p' matches no benchmark" >&2; exit 1; }; \
	done
	$(GO) test $(1) -run '^$$' -bench '$(2)' -benchtime 1x $(3)
endef

build:
	$(GO) build ./...

# gofmt is enforced: CI runs this before go vet.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:" >&2; gofmt -l . >&2; exit 1; }

# Replay one trial of the differential harness (DESIGN.md, "One oracle"):
# every failing assertion of internal/check/trial prints the command this
# runs, with the point that failed.
#   make check POINT='seed=7 catalog=siblings mode=dag windows=5'
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
# docs/TUTORIAL.md cite is a function of some _test.go, every w.Name( they
# show is a method of *Warehouse, every replay point they and this Makefile
# quote (POINT='…', -check.point='…') parses, every package and (file.go)
# the module tables of DESIGN.md and README.md name exists; and
# cmd/experiments' usage errors and its -only output, a section of the block.
docs-check:
	$(call run-tests,./internal/experiments/,TestExperimentsMDIsTheOutput)
	$(call run-tests,.,TestDocsNameTestsThatExist|TestDocsRunCommandsThatExist|TestDocsCallWarehouseMethodsThatExist|TestDocsReplayPointsParse|TestDocsNameFilesThatExist)
	$(call run-tests,./cmd/experiments/,TestUnknownExperimentListsTheIDs|TestRetiredOutputFlagsAreUsageErrors|TestOnlyPrintsItsSectionOfTheBlock)

# Print EXPERIMENTS.md's generated block: every table and figure of the
# paper's evaluation at the defaults (SF 0.002, seed 7, change fraction 0.10).
experiments:
	@$(GO) run ./cmd/experiments

# End-to-end smoke of the query daemon: every test of cmd/whserverd — a
# daemon whose continuous ingester (-ingest) commits windows while it answers
# queries across flipping epochs, then drains (TestServerLifecycle), an
# ingesting leader and two followers (TestReplicaSmoke), an ingesting leader
# drained mid-stream whose /stats and drain line count the ingester's windows
# (TestIngestDrainUnderLoad), the refused flags (TestUsageErrors) and the
# pprof mux — and every
# test of internal/serve: admission, shedding, windows and their budgets, the
# HTTP surface and /stats.
serve-smoke:
	$(GO) test ./cmd/whserverd/ ./internal/serve/ -count=1

# End-to-end smoke of replication: TestReplicaSmoke — a whserverd leader whose
# continuous ingester (-ingest) drives its windows, plus two -follow daemons
# whose lag drains to zero at an
# advanced epoch and whose /stats count the windows they applied — and every
# test of internal/replicate: ship and replay, chunked fetches, the writer's
# shippable mark, torn streams, failover, the golden chunk, and its table of
# replication points of the differential harness (internal/check; the race
# tier runs the package under the detector).
replica-smoke:
	$(call run-tests,./cmd/whserverd/,TestReplicaSmoke)
	$(GO) test ./internal/replicate/ -count=1

# Fault-injected soak of the continuous-ingestion path, under the race
# detector: a paced producer drives micro-batch windows while probabilistic
# crash and transient faults fire at every journaled point; each crash is
# recovered in place and the final state must match a sequential oracle,
# with no goroutine leaks and no staleness runaway. The -soak flag sets the
# wall-clock duration (the package default is 1.5s for plain `make test`).
soak-smoke:
	$(call run-tests,./internal/ingest/,TestSoakIngest,-race,-soak 25s)

# The concurrency tier: the full suite under the race detector. The only
# goroutines that run update windows are internal/exec's (the scheduler's
# workers, staged and DAG); what they share inside a window lives in
# internal/core (the views' pending state, the tables' join indexes), and internal/recovery and the facade drive both
# against shared warehouse state; running everything keeps the tier honest
# as coverage grows.
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
# lock. internal/storage's placement differential pins a reader on a table
# while the writer's install makes the index on its first column the row map.
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
# differential oracle, and the query path's presentation (ORDER BY, LIMIT and
# OFFSET over drawn rows) against the reference algorithm it replaced, and the
# sealed delta — drawn Add, AddEncoded, Merge and Seal sequences — against a
# map of signed counts. Cheap enough for CI.
fuzz-smoke:
	$(GO) test ./internal/journal/ -run '^$$' -fuzz FuzzJournal -fuzztime 10s
	$(GO) test ./internal/snapshot/ -run '^$$' -fuzz FuzzSnapshotRead -fuzztime 10s
	$(GO) test ./internal/sqlparse/ -run '^$$' -fuzz FuzzParseDifferential -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzQueryPresentation -fuzztime 10s
	$(GO) test ./internal/delta/ -run '^$$' -fuzz FuzzSealedDelta -fuzztime 10s

bench:
	$(GO) test . -run '^$$' -bench . -benchtime 1x

# One-iteration pass over the Compute benchmarks with allocation stats:
# cheap enough for CI, and catches probe-path allocation regressions. So does
# one steady-state TPC-D window (BenchmarkIndexedExecution), whose check that
# index probes stay far below the operand tuples they save then runs in CI;
# it reports the rows those probes yield beside them. The
# storage, state-digest and join-probe layer benchmarks (the Q3 probe chain
# through ORDER's and CUSTOMER's indexes among them) and the install of a
# staged aggregate change (BenchmarkInstall) run once too, so that
# they keep compiling and executing between the runs of bench-layers that
# read them.
# Prune at m = 10 and 12 runs once as well, under a timeout: a search back to
# factorial growth (3.6 and 479 million orderings) hangs here, not in a slow
# plan-space. One journaled window against a disk whose flushes take 300 µs
# (one flush a window, syncs/op 1, and three writes — accept, begin, commit —
# writes/op 3) runs once too, and so does the resident-bytes benchmark: the TPC-D
# warehouse at the repository benchmark's scale, its live heap after set-up
# and after 20 windows, and LINEITEM's bytes per stored row. So does one served
# query of each kind of the repository benchmark's two query mixes, through the
# HTTP handler. So do what one TPC-D window does before its first step —
# plan, validate, step DAG and begin record, with allocations and bytes —
# MinWork's planning cost as the VDAG grows, and the bulk builds that fill a
# warehouse: the TPC-D snapshot read back at SF 0.004 and 0.01
# (BenchmarkLoadSnapshot, MB/s and allocations per stored row) and LoadBase
# of SF 0.004 LINEITEM (BenchmarkLoadBase), with allocations.
bench-smoke:
	$(call run-benches,.,BenchmarkCompute|BenchmarkIndexedExecution|BenchmarkWindowFixedPath,-benchmem)
	$(call run-benches,.,BenchmarkResidentBytes)
	$(call run-benches,./internal/planner,BenchmarkPruneScaling/m=1[02]$$,-benchmem -timeout 30s)
	$(call run-benches,./internal/planner,BenchmarkMinWorkScaling,-benchmem)
	$(call run-benches,./internal/storage,.,-benchmem)
	$(call run-benches,./internal/core,Probe|Install$$|LoadBase,-benchmem)
	$(call run-benches,./internal/recovery,StateDigest|JournaledWindow,-benchmem)
	$(call run-benches,./internal/serve,ServeQuery,-benchmem)
	$(call run-benches,./internal/snapshot,LoadSnapshot,-benchmem)

# The layer microbenchmarks of the packages that own a window's phases
# (docs/PERF.md quotes them): plan search against VDAG size, table scan /
# clone / load / apply (rows and groups), join index build / apply (the
# steady-state IndexApply/lineitem, whose table a batch and its undo have
# placed by L_ORDERKEY so that the row map serves that index, beside
# IndexApply/lineitem-first, the first window's adoption of that index's map
# as the row map, and WideFirstColumn, a placed column 0 of 16 to 600 rows a
# key), join
# build and probe (flat table, resident index, and Q3's chain of two index
# steps, ns per driver row), the install of a staged aggregate change into a
# cloned summary table (ns and allocations per changed group), state digest (the fold a
# window pays beside the scan it replaced), a window journaled to a disk whose
# flushes take 300 µs beside the same window unjournaled (its one flush,
# syncs/op 1, runs beside its steps, so the difference is mostly encoding and
# writing its three records, writes/op 3), and the live heap of the
# TPC-D warehouse at the repository benchmark's scale after set-up and after
# 20 windows, with LINEITEM's bytes per stored row. Five samples each,
# with allocations; the planner's also report prefixes priced per search, the
# storage, core and state-digest ones ns/row.
bench-layers:
	$(GO) test . -run '^$$' -bench 'BenchmarkResidentBytes' -count 5
	$(GO) test ./internal/planner -run '^$$' -bench 'PruneScaling|MinWorkScaling' -count 5 -benchmem
	$(GO) test ./internal/storage -run '^$$' -bench . -count 5 -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'BuildTable|Probe|Install$$' -count 5 -benchmem
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
