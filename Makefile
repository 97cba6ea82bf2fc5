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
# implementations, plus the sharded-monitor, whole-transaction
# admission and interpreter families) and records the
# raw test2json stream in BENCH_monitor.json, then regenerates the
# machine-readable PERF6 trajectory BENCH_sharded.json via pwsrbench.
# Both JSON files are checked in so perf regressions stay diffable PR
# over PR. Note -json means stdout carries the JSON event stream, not
# the usual benchmark table; for readable numbers run the go test line
# without -json, and see EXPERIMENTS.md for the recorded tables.
.PHONY: bench
bench:
	$(GO) test . -run '^$$' \
		-bench 'BenchmarkMonitorThroughput|BenchmarkBuildGraphScaling|BenchmarkCheckPWSRWidePartition|BenchmarkShardedMonitor|BenchmarkShardedAdmitSequence|BenchmarkInterpRun' \
		-benchmem -count=6 -json | tee BENCH_monitor.json
	$(GO) run ./cmd/pwsrbench -section sharded -cpu 1,2,4,8 -benchout BENCH_sharded.json
	$(GO) run ./cmd/pwsrbench -section compact -compactout BENCH_compact.json
	$(MAKE) bench-hotpath
	$(MAKE) bench-wal

# bench-hotpath regenerates the PERF8 admission hot-path study alone:
# the scheduler-tick probe loop with the generation-invalidated probe
# cache on and off, across monitor variants and abort-churn regimes,
# writing the machine-readable BENCH_hotpath.json.
.PHONY: bench-hotpath
bench-hotpath:
	$(GO) run ./cmd/pwsrbench -section hotpath -hotpathout BENCH_hotpath.json

# bench-wal regenerates the PERF9 durability study alone: the gated
# admission stream unjournaled and write-ahead journaled across
# backends and group-commit windows, plus a recovery of every written
# log, writing the machine-readable BENCH_wal.json.
.PHONY: bench-wal
bench-wal:
	$(GO) run ./cmd/pwsrbench -section wal -walout BENCH_wal.json

# bench-parallel regenerates the PERF10 block-parallel scaling study:
# the exec.ParallelEngine worker sweep across conflict rates, every
# batch certified through ParallelCertify and checked identical to the
# serial reference, writing the machine-readable BENCH_parallel.json.
# Record the baseline on the machine that will gate against it — the
# file carries host_cpus/gomaxprocs so a mismatch is visible.
.PHONY: bench-parallel
bench-parallel:
	$(GO) run ./cmd/pwsrbench -section parallel -cpu 1,2,4,8 -parallelout BENCH_parallel.json

# check-parallel is the CI leg for the parallel engine: the
# batch-differential and retry-exhaustion tests under the race detector
# at pinned GOMAXPROCS=1 and 8, then the PERF10 sweep gated against the
# checked-in baseline (>10% throughput regression on the uncontended
# scaling curve fails; on a ≥4-CPU host the 4-worker speedup must clear
# 1.5×).
.PHONY: check-parallel
check-parallel:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestParallelEngine' ./internal/exec
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestParallelEngine' ./internal/exec
	$(GO) run ./cmd/pwsrbench -section parallel -cpu 1,2,4,8 -baseline BENCH_parallel.json -maxregress 10 -minspeedup 1.5 -parallelout BENCH_parallel.ci.json

# crash-matrix is the durability differential: the wal package's
# crash-recovery tests — TestCrashMatrix kills the log at every byte
# offset and recovers each prefix — under the race detector at pinned
# GOMAXPROCS=1 and 8, plus the journaled-gate tests in sched.
.PHONY: crash-matrix
crash-matrix:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/wal
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'TestDurableGate|TestOptimisticDurableGate|TestResumeCertify|TestJournalFailStop|TestDegrade|TestTickInjection' ./internal/sched

# chaos is the fault-injection differential (ROBUST1): ≥100 seeded
# randomized fault plans over the full pipeline — gate, journal,
# failover chain, and block-parallel engine — under the race detector
# at pinned GOMAXPROCS=1 and 8, each trial lockstep-compared against
# its uninjected twin. A violated obligation dumps the failing
# fault.Plan as chaos-failed-<seed>.json for exact replay.
.PHONY: chaos
chaos:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestChaos' ./internal/experiments
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestChaos' ./internal/experiments

# cancel-matrix is the cancellation differential (ROBUST2): seeded
# trials arm one deterministic cancel point each — admission ticks,
# journal writes and syncs, commit turns, drain steps — under the race
# detector at pinned GOMAXPROCS=1 and 8, plus the drain-deadline and
# pinned-snapshot-across-drain obligations and the gate/engine/wal
# lifecycle unit tests. A violated obligation dumps the failing case
# as cancel-failed-<seed>.json (replay with pwsrfuzz -mode cancel);
# the checked-in corpus replays through the same differential.
.PHONY: cancel-matrix
cancel-matrix:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestCancel|TestDrain|TestSnapshotPinnedAcrossDrain' ./internal/experiments
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestCancel|TestDrain|TestSnapshotPinnedAcrossDrain' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestDrain|TestClose|TestAdmitTxnCtx' ./internal/sched
	$(GO) test -race -count=1 -run 'TestCancel|TestRunCtx|TestRunManyCtx|TestExecuteBatchCtx' ./internal/exec
	$(GO) test -race -count=1 -run 'TestCloseInterruptsBackoff' ./internal/wal
	$(GO) run ./cmd/pwsrfuzz -mode cancel -trials 60 -seed 7

# bench-chaos regenerates the ROBUST1 record: the 200-plan chaos
# differential with per-trial outcomes written to BENCH_chaos.json.
.PHONY: bench-chaos
bench-chaos:
	$(GO) run ./cmd/pwsrbench -section chaos -chaosout BENCH_chaos.json

# bench-mvread regenerates the PERF11 multiversion-read study: a mixed
# batch of hot-item writers and scan readers, each conflict cell
# measured with the readers certified through the gate and again
# declared read-only and served from pinned snapshots, every bypass
# run re-proved PWSR, writing the machine-readable BENCH_mvread.json.
.PHONY: bench-mvread
bench-mvread:
	$(GO) run ./cmd/pwsrbench -section mvread -mvreadout BENCH_mvread.json

# check-mvread is the CI leg for the multiversion read path: the
# bypass differentials (RW-projection identity, combined-schedule PWSR
# and value-consistent replay, zero reader denials/aborts) and the
# store unit tests under the race detector at pinned GOMAXPROCS=1 and
# 8, then the pwsrfuzz corpus + randomized sweep.
.PHONY: check-mvread
check-mvread:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestMVRead|TestVersionedStore' ./internal/exec
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestMVRead|TestVersionedStore' ./internal/exec
	$(GO) run ./cmd/pwsrfuzz -mode mvread -trials 200 -seed 7

# bench-refresh regenerates every checked-in machine-readable
# benchmark artifact (PERF6–PERF11 plus the monitor stream and the
# ROBUST1 chaos band) and prints a fingerprint line per file — sha256
# and the recorded host_cpus — so a refresh PR shows at a glance what
# was re-recorded and at what parallelism. Run it on multi-core
# hardware and check the results in to turn the parallel baseline
# gate's speedup-shape fallback into absolute-throughput gating; the
# bench-refresh CI job does exactly this on runners with ≥4 CPUs and
# uploads the files as an artifact.
.PHONY: bench-refresh
bench-refresh: bench bench-parallel bench-chaos bench-mvread
	@echo "--- BENCH_*.json fingerprints ---"
	@for f in BENCH_*.json; do \
		cpus=$$(grep -m1 -o '"host_cpus": *[0-9]*' $$f | grep -o '[0-9]*' || echo '?'); \
		printf '%s  host_cpus=%s\n' "$$(sha256sum $$f)" "$$cpus"; \
	done

# bench-cpu is the PERF6 scaling sweep: the sharded-monitor and
# lock-free-intern families across GOMAXPROCS widths, plus the
# pwsrbench sweep that rewrites BENCH_sharded.json.
.PHONY: bench-cpu
bench-cpu:
	$(GO) test . -run '^$$' -bench 'BenchmarkShardedMonitor' -benchmem -cpu 1,2,4,8
	$(GO) test ./internal/intern -run '^$$' -bench 'BenchmarkSharedLookupParallel' -benchmem -cpu 1,2,4,8
	$(GO) run ./cmd/pwsrbench -section sharded -cpu 1,2,4,8 -benchout BENCH_sharded.json

# profile-batch writes a CPU profile of whole-transaction admission
# (PERF14's family: AdmitSequence + Commit on batch-rw's partition
# shape, single monitor and sharded) to admit.prof, with the test binary
# beside it; read it with
#   go tool pprof -top -focus 'ShardedMonitor' pwsr.test admit.prof
# The benchmark binary itself has no -cpuprofile flag yet (ROADMAP,
# telemetry item), so this is how batch-rw's serial section is profiled.
.PHONY: profile-batch
profile-batch:
	$(GO) test . -run '^$$' -bench 'BenchmarkShardedAdmitSequence' -benchmem -cpuprofile admit.prof -o pwsr.test

# profile-tick writes a CPU profile of the tick engine under abort and
# restart (PERF16's family: hot-tick's shape through OptimisticCertify
# with VictimYoungest) to tick.prof, with the test binary beside it;
# read it with
#   go tool pprof -top -focus 'exec.RunCtx' pwsr.test tick.prof
.PHONY: profile-tick
profile-tick:
	$(GO) test . -run '^$$' -bench 'BenchmarkTickAbortRestart' -benchmem -benchtime=3000x -cpuprofile tick.prof -o pwsr.test

# bench-all runs every benchmark in the repository once.
.PHONY: bench-all
bench-all:
	$(GO) test . -run '^$$' -bench . -benchmem

.PHONY: test
test:
	$(GO) test ./...

# check is the CI gate: static analysis plus the full test suite under
# the race detector (the sharded monitor paths, the lifecycle
# commit/compact paths, and the engines' abort/restart and worker
# handoffs are the concurrency-sensitive code), then the
# concurrency-sensitive packages again at pinned GOMAXPROCS=1 and
# GOMAXPROCS=8 — the former serializes every interleaving (catching
# logic that only works by accident of parallelism), the latter widens
# the schedule space beyond the host's default. The pinned-width core
# runs include the commit-and-compact lifecycle differentials
# (TestCompactDifferential, TestShardedCompactConcurrent), which are
# not -short-gated; -short on the race passes skips only the 1M-op
# soak (that lives in `make soak` and in the un-raced tier-1 suite).
# The raced sched legs include the verdict memo's soundness
# differential (TestVerdictMemoMatchesFreshMask: the memoized mask
# against a from-scratch recomputation at every Pick, the sharded
# gate's concurrent probes included).
# The final leg re-runs the TestZeroAlloc*, TestTickEngineAllocs and
# TestInterpRunAllocs pins without the race detector (whose
# instrumentation allocates, so the pins self-skip under -race): an
# allocation regression on the steady-state Observe/Admissible hot
# path, a gate tick
# (TestZeroAllocGatePick, TestZeroAllocDelayedReadPick), victim
# selection (TestZeroAllocVictim), the tick engine's grant path
# (TestTickEngineAllocs), a victim's abort, restart and re-park
# (TestZeroAllocTickRestart) or the interpreter's
# one-slot-array-per-Run state (TestInterpRunAllocs) fails
# CI here, not just benchmarks. That leg also carries the sharded
# monitor's cost-shape pin (TestZeroAllocShardedAdmitLiveSetIndependent:
# whole-transaction admission allocates the same with 16 and with 4096
# resident transactions), and the last line runs the PERF14, PERF15 and
# PERF16 benchmark families once so they cannot rot.
# The chaos smoke (a fixed 40-seed band of the ROBUST1 fault
# differential, deterministic by construction) also rides in the raced
# `./...` pass; the full randomized matrix lives in `make chaos`.
.PHONY: check
check:
	$(GO) vet ./...
	$(GO) test -race -short ./...
	GOMAXPROCS=1 $(GO) test -race -short -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal
	GOMAXPROCS=8 $(GO) test -race -short -count=1 ./internal/core ./internal/sched ./internal/exec ./internal/wal
	$(GO) test -run 'TestZeroAlloc|TestTickEngineAllocs|TestInterpRunAllocs' -count=1 ./internal/core
	$(GO) test . -run '^$$' -bench 'BenchmarkShardedAdmitSequence|BenchmarkInterpRun|BenchmarkTickAbortRestart' -benchtime=1x

# soak is the long-run bounded-memory test: ≥ 1M operations through a
# single OptimisticCertify gate with the transaction lifecycle on,
# asserting the resident population stays O(concurrent window) and the
# heap plateaus (see EXPERIMENTS.md PERF7). Skipped under -short.
.PHONY: soak
soak:
	$(GO) test ./internal/sched -run TestSoak -v -count=1 -timeout 20m
