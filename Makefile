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

# listguard fails unless every alternative of the -run, -bench or -fuzz
# alternation $(1) matches a test, benchmark or fuzz target of the
# packages $(2) (`go test -list`), so a renamed one cannot drop silently
# out of a leg: `go test` runs nothing for a pattern that matches
# nothing, and exits 0.
define listguard
	@tests=$$($(GO) test -list '.*' $(2) | grep -E '^(Test|Benchmark|Fuzz)'); \
	for alt in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$tests" | grep -qE -- "$$alt" || { echo "$(2): alternative $$alt matches nothing" >&2; exit 1; }; \
	done
endef

# crash-matrix is the durability differential: the wal package's
# crash-recovery tests — TestCrashMatrix kills the log at every byte
# offset and recovers each prefix, TestGroupFlushFaults fails group
# flushes at GroupEvery 2 and 16 — under the race detector at pinned
# GOMAXPROCS=1 and 8, plus the journaled-gate tests in sched, TestAcknowledgedCommitsDurable among them (a returned
# run's commits survive a machine crash).
CRASH_SCHED_RUN := TestDurableGateJournalsAndRecovers|TestOptimisticDurableGateRecovers|TestResumeCertifyContinues|TestJournalFailStop|TestTickInjection|TestAcknowledgedCommitsDurable
.PHONY: crash-matrix
crash-matrix:
	$(call listguard,$(CRASH_SCHED_RUN),./internal/sched)
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/wal
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run '$(CRASH_SCHED_RUN)' ./internal/sched

# chaos is the fault-injection differential (ROBUST1): ≥100 seeded
# randomized fault plans over the full pipeline — gate, journal on one
# injected backend, and block-parallel engine — under the race detector
# at pinned GOMAXPROCS=1 and 8, each trial lockstep-compared against
# its uninjected twin. A violated obligation dumps the failing
# fault.Plan as chaos-failed-<seed>.json for reading; no code reads it
# back, and RunChaosTrial(seed) is the replay.
CHAOS_RUN := TestChaos
.PHONY: chaos
chaos:
	$(call listguard,$(CHAOS_RUN),./internal/experiments)
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(CHAOS_RUN)' ./internal/experiments
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(CHAOS_RUN)' ./internal/experiments

# cancel-matrix is the cancellation differential (ROBUST2): seeded
# trials arm one deterministic cancel point each — admission ticks,
# journal writes and syncs, commit turns, drain steps — under the race
# detector at pinned GOMAXPROCS=1 and 8, plus the drain-deadline and
# pinned-snapshot-across-drain obligations and the gate/engine/wal
# lifecycle unit tests. A violated obligation dumps the failing case
# as cancel-failed-<seed>.json; moved under
# internal/experiments/testdata/cancel, it replays in TestCancelReplay
# with the rest of that corpus.
CANCEL_EXPERIMENTS_RUN := TestCancel|TestDrain|TestSnapshotPinnedAcrossDrain
CANCEL_SCHED_RUN := TestDrain|TestClose|TestGateSharedByTickAndBatchEngines
CANCEL_EXEC_RUN := TestCancel|TestRunCtx|TestExecuteBatchCtx
CANCEL_WAL_RUN := TestCloseInterruptsBackoff
.PHONY: cancel-matrix
cancel-matrix:
	$(call listguard,$(CANCEL_EXPERIMENTS_RUN),./internal/experiments)
	$(call listguard,$(CANCEL_SCHED_RUN),./internal/sched)
	$(call listguard,$(CANCEL_EXEC_RUN),./internal/exec)
	$(call listguard,$(CANCEL_WAL_RUN),./internal/wal)
	GOMAXPROCS=1 $(GO) test -race -count=1 -run '$(CANCEL_EXPERIMENTS_RUN)' ./internal/experiments
	GOMAXPROCS=8 $(GO) test -race -count=1 -run '$(CANCEL_EXPERIMENTS_RUN)' ./internal/experiments
	$(GO) test -race -count=1 -run '$(CANCEL_SCHED_RUN)' ./internal/sched
	$(GO) test -race -count=1 -run '$(CANCEL_EXEC_RUN)' ./internal/exec
	$(GO) test -race -count=1 -run '$(CANCEL_WAL_RUN)' ./internal/wal

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

# check is the CI gate: static analysis plus the full test suite under
# the race detector (the gates' locking, the lifecycle commit/compact
# paths, and the engines' abort/restart and worker handoffs are the
# concurrency-sensitive code), then the
# concurrency-sensitive packages again at pinned GOMAXPROCS=1 and
# GOMAXPROCS=8 — the former serializes every interleaving (catching
# logic that only works by accident of parallelism), the latter widens
# the schedule space beyond the host's default. The pinned-width core
# runs include the commit-and-compact lifecycle differential
# (TestCompactDifferential), which is not -short-gated; -short on the race passes skips only the 1M-op
# soak (that lives in `make soak` and in the un-raced tier-1 suite).
# The raced sched legs include the verdict memo's soundness
# differential (TestVerdictMemoMatchesFreshMask: the memoized mask
# against a from-scratch recomputation at every Pick, under both victim
# policies).
# The raced ./... pass also runs TestTickDecisionsPinned (root package):
# the optimistic gate's exact decision totals on hot-tick's shape and
# its stall census beside them (stalls, solo stalls, stalls resolved by
# their delayed-read blocker, delayed-read and certifier denials), so a
# gate optimisation that changes a grant, probe or victim fails here.
# So does TestLifecycleAssertedOnce: exec, sched and the facade hold
# exactly two capability type assertions (Gate in RunCtx and in
# NewParallelEngine), and the gate probes neither its inner policy nor
# its journal.
# The final leg re-runs the TestZeroAlloc*, TestTickEngineAllocs,
# TestBatchEngineAllocs and TestInterpRunAllocs pins without the race
# detector (whose instrumentation allocates, so the pins self-skip
# under -race): an
# allocation regression on the steady-state Observe/Admissible hot
# path, a gate tick
# (TestZeroAllocGatePick, which also pins that an unchanged pending set
# is not re-probed, and TestZeroAllocDelayedReadPick), victim
# selection (TestZeroAllocVictim), the tick engine's grant path
# (TestTickEngineAllocs), a victim's abort, restart and re-park
# (TestZeroAllocTickRestart), a batch round's cost (TestBatchEngineAllocs:
# a constant per batch, nothing per transaction or operation, with and
# without a gate compacting inside the window), whole-transaction
# admission with its compaction passes (TestZeroAllocFreshAdmission: at
# most 0.25 per transaction) or the interpreter's
# one-slot-array-per-Run state (TestInterpRunAllocs) fails
# CI here, not just benchmarks. That leg also carries the monitor's
# cost-shape pin (TestZeroAllocAdmitLiveSetIndependent:
# whole-transaction admission allocates the same with 16 and with 4096
# resident transactions) and the journal's append path
# (TestZeroAllocWriterAppend: under 0.1 allocations per record), and the
# next two lines run the PERF14–PERF18 and PERF20 benchmark families once
# so they cannot rot. The line after them is the multiversion read
# path's sweep: TestMVReadDifferentialTick without -short, so its 200
# seeded workloads (seeds 7..206) re-prove the bypass obligations once
# without the race detector (its raced differentials, TestMVRead* and
# TestVersionedStore*, ride in the pinned exec passes, where -short
# skips the sweep).
# The two native fuzz legs after it run 15 seconds each: FuzzParse (the
# program parser's print/re-parse round trip) and FuzzInterpForms (the
# interpreter's statement forms, Run and a suspended Machine against the
# reference interpreter); their checked-in seed corpora also replay in
# every plain go test.
# Every -run, -bench and -fuzz list of those lines is guarded first
# (listguard), since a pattern that matches nothing passes silently.
# The chaos smoke (a fixed 40-seed band of the ROBUST1 fault
# differential, deterministic by construction) also rides in the raced
# `./...` pass; the full randomized matrix lives in `make chaos`.
CHECK_ALLOC_RUN := TestZeroAlloc|TestTickEngineAllocs|TestBatchEngineAllocs|TestInterpRunAllocs
CHECK_BENCH := BenchmarkAdmitSequence|BenchmarkInterpRun|BenchmarkTickAbortRestart|BenchmarkTickRound|BenchmarkBatchRound
CHECK_WAL_BENCH := BenchmarkWriterAppend
CHECK_MVREAD_RUN := ^TestMVReadDifferentialTick$$
CHECK_FUZZ_PARSE := ^FuzzParse$$
CHECK_FUZZ_FORMS := ^FuzzInterpForms$$
.PHONY: check
check:
	$(call listguard,$(CHECK_ALLOC_RUN),./internal/core ./internal/wal)
	$(call listguard,$(CHECK_BENCH),.)
	$(call listguard,$(CHECK_WAL_BENCH),./internal/wal)
	$(call listguard,$(CHECK_MVREAD_RUN),./internal/exec)
	$(call listguard,$(CHECK_FUZZ_PARSE)|$(CHECK_FUZZ_FORMS),./internal/program)
	$(GO) vet ./...
	$(GO) test -race -short ./...
	GOMAXPROCS=1 $(GO) test -race -short -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal
	GOMAXPROCS=8 $(GO) test -race -short -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal
	$(GO) test -run '$(CHECK_ALLOC_RUN)' -count=1 ./internal/core ./internal/wal
	$(GO) test . -run '^$$' -bench '$(CHECK_BENCH)' -benchtime=1x
	$(GO) test ./internal/wal -run '^$$' -bench '$(CHECK_WAL_BENCH)' -benchtime=1x
	$(GO) test -run '$(CHECK_MVREAD_RUN)' -count=1 ./internal/exec
	$(GO) test -run '^$$' -fuzz '$(CHECK_FUZZ_PARSE)' -fuzztime 15s ./internal/program
	$(GO) test -run '^$$' -fuzz '$(CHECK_FUZZ_FORMS)' -fuzztime 15s ./internal/program

# soak is the long-run bounded-memory test: ≥ 1M operations through a
# single OptimisticCertify gate with the transaction lifecycle on,
# asserting the resident population stays O(concurrent window) and the
# heap plateaus (see EXPERIMENTS.md PERF7). Skipped under -short.
.PHONY: soak
soak:
	$(GO) test ./internal/sched -run TestSoak -v -count=1 -timeout 20m
