# Build/verify/benchmark entry points for the PWSR reproduction.

GO ?= go

# tier1 is the repository's tier-1 verification gate.
.PHONY: tier1
tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# benchmark runs the end-to-end benchmark BENCHMARK.json declares: four
# workloads through the whole pipeline, end-to-end metrics untraced and
# per-layer attribution from a traced pass (see benchmark/README.md).
# `go run ./benchmark -workload cad-tick` is the tick engine's
# performance surface, `-workload hot-tick` the gate's.
.PHONY: benchmark
benchmark:
	sh benchmark/run.sh

# benchmark-smoke runs every workload for a fixed 1024 rounds — the
# smallest count the benchmark takes, cad-tick's segment — with the
# traced pass, so the output checks run and the traced pass must
# reproduce the untraced pass's exact counts. About fifteen seconds.
.PHONY: benchmark-smoke
benchmark-smoke:
	$(GO) run ./benchmark -rounds 1024 -trace 1

# bench runs the certification-core benchmark families (the optimized
# Monitor and BuildGraph against their retained reference
# implementations, plus the whole-transaction admission and interpreter
# families) and records the raw test2json stream in
# BENCH_monitor.json, then regenerates the PERF7 and PERF9 records via
# pwsrbench. The JSON files are checked in so perf regressions stay
# diffable PR over PR. Note -json means stdout carries the JSON event stream, not
# the usual benchmark table; for readable numbers run the go test line
# without -json, and see EXPERIMENTS.md for the recorded tables.
.PHONY: bench
bench:
	$(GO) test . -run '^$$' \
		-bench 'BenchmarkMonitorThroughput|BenchmarkBuildGraphScaling|BenchmarkCheckPWSRWidePartition|BenchmarkAdmitSequence|BenchmarkInterpRun' \
		-benchmem -count=6 -json | tee BENCH_monitor.json
	$(GO) run ./cmd/pwsrbench -section compact -out BENCH_compact.json
	$(MAKE) bench-wal

# bench-wal regenerates the PERF9 durability study alone: the gated
# admission stream unjournaled and write-ahead journaled across
# backends and group-commit windows, plus a recovery of every written
# log, writing the machine-readable BENCH_wal.json.
.PHONY: bench-wal
bench-wal:
	$(GO) run ./cmd/pwsrbench -section wal -out BENCH_wal.json

# bench-refresh regenerates every checked-in machine-readable
# benchmark artifact (PERF7 and PERF9 plus the monitor stream) and
# prints a fingerprint line per file — sha256 and the recorded
# host_cpus — so a refresh PR shows at a glance what was re-recorded
# and at what parallelism. The bench-refresh CI job runs it and uploads
# the files as an artifact for check-in.
.PHONY: bench-refresh
bench-refresh: bench
	@echo "--- BENCH_*.json fingerprints ---"
	@for f in BENCH_*.json; do \
		cpus=$$(grep -m1 -o '"host_cpus": *[0-9]*' $$f | grep -o '[0-9]*' || echo '?'); \
		printf '%s  host_cpus=%s\n' "$$(sha256sum $$f)" "$$cpus"; \
	done

# profile-batch writes a CPU profile of whole-transaction admission
# (PERF14's family: AdmitSequence + Commit on batch-rw's partition
# shape) to admit.prof, with the test binary beside it; read it with
#   go tool pprof -top -focus 'AdmitSequence' pwsr.test admit.prof
# The benchmark binary itself has no -cpuprofile flag yet (ROADMAP,
# telemetry item), so this is how batch-rw's serial section is profiled.
.PHONY: profile-batch
profile-batch:
	$(GO) test . -run '^$$' -bench 'BenchmarkAdmitSequence' -benchmem -cpuprofile admit.prof -o pwsr.test

# profile-batch-round writes a CPU profile of a whole batch round on the
# block-parallel engine (PERF17's family: batch-rw's shape — speculation,
# validation, commit, snapshot readers and admission through the gate)
# to batch.prof and its allocation profile to batch.mem, with the test
# binary beside them; read them with
#   go tool pprof -top -focus 'ExecuteBatchCtx' pwsr.test batch.prof
#   go tool pprof -sample_index=alloc_objects -top pwsr.test batch.mem
.PHONY: profile-batch-round
profile-batch-round:
	$(GO) test . -run '^$$' -bench 'BenchmarkBatchRound' -benchmem -benchtime=3000x -cpuprofile batch.prof -memprofile batch.mem -o pwsr.test

# profile-tick writes a CPU profile of the tick engine under abort and
# restart (PERF16's family: hot-tick's shape through OptimisticCertify
# with VictimYoungest) to tick.prof and its allocation profile to
# tick.mem, with the test binary beside them; read them with
#   go tool pprof -top -focus 'exec.RunCtx' pwsr.test tick.prof
#   go tool pprof -sample_index=alloc_space -top pwsr.test tick.mem
.PHONY: profile-tick
profile-tick:
	$(GO) test . -run '^$$' -bench 'BenchmarkTickAbortRestart' -benchmem -benchtime=3000x -cpuprofile tick.prof -memprofile tick.mem -o pwsr.test

# profile-wal writes a CPU profile of the journal's append path
# (PERF18's family: steady observe/commit/compact records through
# wal.Writer on the memory and file backends at GroupEvery 1 and 16) to
# wal.prof, with the test binary beside it; read it with
#   go tool pprof -top -focus 'wal.\(\*Writer\)' wal.test wal.prof
.PHONY: profile-wal
profile-wal:
	$(GO) test ./internal/wal -run '^$$' -bench 'BenchmarkWriterAppend' -benchmem -cpuprofile wal.prof -o wal.test

# bench-all runs every benchmark in the repository once.
.PHONY: bench-all
bench-all:
	$(GO) test . -run '^$$' -bench . -benchmem

# loc prints the non-test Go line counts of the packages CHANGES.md and
# ROADMAP.md track, plus the facade, and their total; then, outside the
# total so that series stays comparable, the experiments package and
# the pwsrbench command.
.PHONY: loc
loc:
	@for f in internal/sched internal/exec internal/core internal/wal internal/program pwsr.go; do \
		find $$f -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | xargs printf '%-20s %6d\n' $$f; \
	done
	@find internal/sched internal/exec internal/core internal/wal internal/program pwsr.go -maxdepth 1 \
		-name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | xargs printf '%-20s %6d\n' total
	@for f in internal/experiments cmd/pwsrbench; do \
		find $$f -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | xargs printf '%-20s %6d\n' $$f; \
	done

.PHONY: test
test:
	$(GO) test ./...

# check is the CI gate, and it runs whole suites, never lists, so a new
# test joins it by existing:
# - gofmt and vet;
# - the suite once without the race detector, whose instrumentation
#   allocates: the TestZeroAlloc* and *Allocs pins self-skip under
#   -race and run here, beside the 200-seed sweep of
#   TestMVReadDifferentialTick and the sched soak;
# - the suite under the race detector (the gates' locking, the
#   lifecycle commit/compact paths, the journal and the engines'
#   abort/restart and worker handoffs are the concurrency-sensitive
#   code);
# - the concurrency-sensitive packages raced again at pinned
#   GOMAXPROCS=1, which serializes every interleaving, and 8, which
#   widens the schedule space beyond the host's. Among them are wal's
#   crash differential (TestCrashMatrix kills the log at every byte
#   offset), the sched journaled-gate tests, and experiments' chaos
#   (ROBUST1) and cancel (ROBUST2) differentials. A failing chaos
#   trial dumps chaos-failed-<seed>.json and a failing cancel case
#   cancel-failed-<seed>.json, which replays in TestCancelReplay once
#   moved under internal/experiments/testdata/cancel;
# - every benchmark in the module once, so none can rot;
# - every native fuzz target that `go test -list` finds, 15 seconds
#   each. `go test -fuzz` passes when its pattern matches nothing, so
#   the loop fails if it finds no target at all.
# -short is never set: nothing here skips the long differentials.
.PHONY: check
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that need formatting:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) test -count=1 ./...
	$(GO) test -race -count=1 ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal ./internal/experiments
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal ./internal/experiments
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }'); \
	[ -n "$$targets" ] || { echo "go test -list '^Fuzz' ./... found no fuzz target" >&2; exit 1; }; \
	echo "$$targets" | while read pkg fuzz; do \
		echo "$(GO) test -run '^\$$' -fuzz '^$$fuzz\$$' -fuzztime 15s $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$fuzz\$$" -fuzztime 15s $$pkg || exit 1; \
	done || exit 1; \
	echo "fuzzed $$(echo "$$targets" | wc -l) targets"

# soak is the long-run bounded-memory test: ≥ 1M operations through a
# single OptimisticCertify gate with the transaction lifecycle on,
# asserting the resident population stays O(concurrent window) and the
# heap plateaus (see EXPERIMENTS.md PERF7). Skipped under -short.
.PHONY: soak
soak:
	$(GO) test ./internal/sched -run TestSoak -v -count=1 -timeout 20m
