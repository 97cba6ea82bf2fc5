// Package pwsr is a library implementation of
//
//	Rastogi, Mehrotra, Breitbart, Korth, Silberschatz.
//	"On Correctness of Nonserializable Executions."
//	PODS 1993; JCSS 56, 68–82 (1998).
//
// The paper studies predicate-wise serializability (PWSR): a schedule is
// PWSR when its restriction to each conjunct of the database integrity
// constraint IC = C1 ∧ … ∧ Cl (the conjuncts defined over disjoint data
// sets) is conflict serializable. PWSR schedules are generally NOT
// serializable and may violate consistency; the paper identifies three
// sufficient conditions under which they are nonetheless *strongly
// correct* — the final state is consistent and every transaction reads
// consistent data:
//
//	Theorem 1  all transaction programs are fixed-structure,
//	Theorem 2  the schedule is delayed-read (DR; implied by ACA),
//	Theorem 3  the data access graph DAG(S, IC) is acyclic.
//
// This package is the public facade over the implementation:
//
//   - database states, finite domains, and the ⊎ union (internal/state),
//   - the quantifier-free constraint language with a finite-domain
//     solver deciding consistency of *restricted* states
//     (internal/constraint),
//   - value-carrying transactions and schedules with the paper's
//     notation — RS, WS, read, write, struct, before, after, depth
//     (internal/txn),
//   - conflict serializability and the data access graph
//     (internal/serial, internal/dag),
//   - the TPL transaction-program language, interpreter, fixed-structure
//     analysis, and the TP → TP' balancing transformation
//     (internal/program),
//   - a concurrent execution engine with pluggable policies — scripted,
//     random, conservative strict 2PL, predicate-wise 2PL, a
//     delayed-read gate, and two PWSR certification gates — plus
//     abort/restart support: a policy implementing exec.Restarter can
//     resolve a stall by sacrificing a victim, whose attempt the engine
//     erases exactly (operations expunged, writes undone through
//     per-item write histories, live readers cascaded) before
//     restarting its program (internal/exec, internal/sched),
//   - the PWSR/strong-correctness checkers, view sets, transaction
//     states, theorem appliers, and the online certification monitors
//     with incremental cycle detection, incremental retraction, and a
//     first-class transaction lifecycle — Monitor.Retract rolls a live
//     transaction out of certification state without a rebuild (the
//     primitive optimistic scheduling is built on), Monitor.Commit
//     marks one finished, and Monitor.Compact physically reclaims
//     committed transactions no future conflict cycle can reach, so a
//     long-lived certifier's memory tracks the concurrent window
//     instead of the stream (the low-watermark argument is spelled out
//     in the core package comment) — plus ShardedMonitor, the
//     concurrent certifier that partitions the conjuncts across
//     independent monitor shards so admission scales with cores
//     (internal/core, internal/intern; the intern tables' concurrent
//     variant reads lock-free so shards never serialize on the shared
//     route table),
//   - a crash-safe durability layer: both certifiers mirror their
//     lifecycle stream (Observe/Retract/Commit/Compact) to a pluggable
//     sink, and internal/wal is the reference sink — a framed,
//     CRC-protected, group-committed write-ahead log whose snapshots
//     ride the compactor's low watermark, with recovery that rebuilds
//     a verdict-identical monitor from whatever durable prefix
//     survives a crash (a kill-at-every-byte-offset differential
//     asserts this), fail-stop semantics when the device dies, and
//     Resume to continue a certifier across a restart
//     (internal/wal; sched.ResumeCertify wires it to a gate).
//
// The certification gates embody the two classic stances: pessimistic
// blocking (pwsr.NewCertify — inadmissible operations wait, infeasible
// conflict patterns stall the run) and optimistic abort/retry
// (pwsr.NewOptimisticCertify — stalls are resolved by aborting a
// victim chosen by a pluggable policy, youngest or fewest-ops; the
// gate is cascadeless, so its schedules are PWSR and delayed-read by
// construction and Theorem 2 applies to every completed run of correct
// programs). pwsr.NewParallelCertify is the optimistic gate over the
// sharded certifier: admissibility preflights fan out across
// goroutines, so operations on disjoint shards certify concurrently
// while the gate's decisions stay exactly NewOptimisticCertify's.
// pwsr.RunMany drives independent engine runs concurrently for
// fleet-style throughput (each run gets its own clone of a cloneable
// policy; a non-cloneable policy instance aliased across configs is
// rejected with ErrSharedPolicy before anything executes). All three
// gates commit finished transactions to their certifier, whose
// compactor keeps the resident population bounded across arbitrarily
// long streams; the engine surfaces the lifecycle counters through
// Metrics.Compactions/ReclaimedOps/LiveTxns.
//
// Within a single batch, exec.ParallelEngine parallelizes execution
// itself: workers run independent programs speculatively against a
// shared versioned store (every read records the item's version
// stamp), transactions commit strictly in ascending-id order, and a
// commit whose reads went stale is re-executed authoritatively at its
// commit turn against the frozen store — so retry livelock is bounded
// and the result is deterministic, byte-identical in schedule and
// final state to the serial run at any worker count. Each commit is
// admitted as a whole transaction through the certification gate
// (sched's AdmitTxn over the sharded monitor's AdmitSequence), making
// the committed schedule PWSR by construction; EXPERIMENTS.md PERF10
// records the per-core scaling study and its CI regression gate.
//
// The admission hot path is allocation-free in steady state: the
// monitor interns transactions once into dense tables, keeps edge
// reference counts in an open-addressing table, pools every search and
// replay scratch buffer, and memoizes Admissible verdicts in a
// generation-invalidated probe cache (a repeated probe costs a hash
// lookup until the certification state it depends on actually moves;
// the soundness rule and its monotonicity argument are in the core
// package comment). The engine surfaces the cache counters through
// Metrics.ProbeHits/ProbeMisses/ProbeInvalidations.
//
// The certification gates tick incrementally: a tick costs what changed
// since the last one, not what is pending. Each gate carries its
// pending requests' verdicts from tick to tick and re-decides one only
// when a per-conjunct epoch under it moved — a grant moves the epochs of
// the granted item's conjuncts, an abort, cancel or commit those of the
// conjuncts the transaction was granted in, and whatever reaches the
// certifier without naming a conjunct (batch admission, a compaction
// pass, a drain, a caller handed Monitor()) moves a global one. The rule
// is exact, not a heuristic, because PWSR is predicate-wise: Definition
// 2 certifies each conjunct's projection on its own, so nothing that
// happens inside conjunct e′ can change the admissibility of a request
// on an item of conjunct e (the sched package comment states the rule in
// full; TestVerdictMemoMatchesFreshMask recomputes the whole mask at
// every tick and requires equality). The engine does its share: it
// maintains each attempt's first schedule position and operation count
// (View.FirstOp, View.OpCount), so choosing a victim is O(pending), and
// an abort rewrites only the schedule suffix from the victim's first
// operation on. EXPERIMENTS.md PERF13 records the effect. Monitor
// inspection accessors such as ConflictEdges allocate per call and are
// for differential tests and post-run analysis, not the admission
// path.
//
// A transaction program resolves its names once, when it is built:
// program.Parse, Clone and Balance number every name in the program —
// data item or local alike — 1, 2, … in its own dense numbering, stored
// on the variable nodes and the let/assignment statements, and an
// attempt runs against one array of slots indexed by that number: per
// name a value and whether the attempt declared it a local, cached its
// read or wrote it. With the step budget and a short control stack that
// is the whole run-time state of an attempt — nothing hashed, nothing
// allocated per executed statement. Only the slot is static; what a name
// means is still decided as the program runs, as §2.2 has it: a name is
// a data item until a let of it executes and a local from then on, so a
// let in a branch not taken leaves it an item. Because the number lives
// on the node, a program owns its nodes: Clone copies them, and is how
// statements assembled by hand or borrowed from another program become a
// program of their own (Run clones a hand-built literal privately; the
// tick engine resolves one once per run). The slots also carry the §2.2
// access discipline — an item is read at most once and never after the
// program's own write — so nothing downstream keeps repeat-read
// bookkeeping. EXPERIMENTS.md PERF15 records the effect.
//
// That state is a value, program.Machine, and it is the only interpreter:
// Step runs an attempt to its next operation or its end. Driven through
// Interp.Run it calls a program.Accessor at each operation and never
// stops (the batch engine, RunInIsolation, snapshot readers). The tick
// engine holds one Machine per transaction and steps it on its own
// stack: the Machine suspends at each operation — at a read in the
// middle of the statement, which is evaluated again once the value is
// delivered, exactly, because evaluation has no effect but cached reads
// — and waits, as a value, for the policy's grant. So there is no
// transport between engine and programs, no goroutine or coroutine per
// attempt, and a victim's restart is Reset: the slots zeroed in place,
// nothing allocated, nothing of the erased attempt left for the new one
// to see (Kuznetsov and Peri's non-interference). EXPERIMENTS.md PERF16
// records the effect; TestInterpDifferential holds both ways of driving
// the Machine, and Reset, to the name-keyed reference interpreter.
//
// Benchmarks for the certification hot path and the scheduling-policy
// studies live in bench_test.go (run `make bench`, and see
// BenchmarkCertifyPolicies/BenchmarkMonitorRetract for the PERF5
// family and BenchmarkShardedMonitor plus `make bench-cpu` for the
// PERF6 GOMAXPROCS sweep); EXPERIMENTS.md records their outputs, and
// `make bench` checks the machine-readable trajectories into
// BENCH_monitor.json, BENCH_sharded.json, BENCH_compact.json,
// BENCH_hotpath.json, and BENCH_wal.json (`make bench-hotpath`,
// `make bench-wal`, and `make bench-parallel` regenerate the PERF8
// hot-path, PERF9 durability, and PERF10 parallel-scaling studies
// alone; every file opens with the host's go/goos/goarch/host_cpus/
// gomaxprocs fingerprint so scaling rows can't be mistaken for
// measurements at a parallelism they never ran at). `make check` runs
// `go vet` plus the full suite under the race detector, then the
// concurrency-sensitive packages again at GOMAXPROCS=1 and 8, then
// the zero-allocation hot-path pins (TestZeroAlloc*) without the race
// detector; `make crash-matrix` runs the wal crash differential under
// the race detector at both pinned widths, and `make check-parallel`
// runs the parallel-engine differentials raced at both widths plus
// the PERF10 regression gate against the checked-in baseline.
//
// # Degradation modes and failover
//
// A journaled gate's behaviour when its storage dies is a policy, not
// an accident. sched.AttachJournal defaults to fail-stop — the gate
// stops granting and the engine surfaces exec.ErrJournalDown — and
// accepts options for two softer stances: sched.DegradeShed keeps the
// run's error typed (exec.ErrDegraded) and the refusal queryable
// through Health, and sched.DegradeBuffer bridges transient outages
// by acknowledging grants against a bounded in-memory queue that
// drains through Writer.Heal, tripping to shed if the outage outlasts
// the cap or deadline. In every mode the write-ahead invariant holds:
// no grant is ever acknowledged whose record cannot reach the log.
// All three errors (ErrStall, ErrJournalDown, ErrDegraded) are
// errors.Is-distinguishable, and the gate's live posture — mode,
// queue depth, shed/buffered/dropped counters, failover promotions,
// heals — surfaces through Health() and the engine's Metrics.Health.
//
// Below the gate, wal.FailoverBackend chains ordered backends behind
// one Backend: when the writer exhausts its retry budget the chain
// promotes the next standby and the writer resynchronizes it from its
// byte-exact segment mirror, so sequence numbers continue without a
// gap and recovery reads the survivor like any other log. The
// internal/fault package is the deterministic injection plane that
// tests all of this: seeded, occurrence-counted fault plans (JSON
// round-trippable, replayable) fire at backend writes and syncs,
// journal barriers, gate ticks, and parallel-engine commit turns.
// `make chaos` runs the ROBUST1 differential — randomized fault plans
// over the full pipeline, each trial lockstep-compared against its
// uninjected twin for schedule, verdict, and durable-prefix equality
// — under the race detector at pinned GOMAXPROCS=1 and 8; a failing
// trial dumps its plan as a replayable chaos-failed-<seed>.json
// artifact.
//
// # Lifecycle: cancellation, deadlines, and drain
//
// Every public entry point has a context-bounded form —
// RunWithContext, RunManyWithContext, RunParallelWithContext, the
// gates' AdmitTxnCtx, wal.Writer.BarrierCtx — and termination always
// surfaces as one of two typed errors: ErrCanceled (explicit cancel)
// or ErrDeadline (deadline expiry), errors.Is-distinguishable from
// each other and never confused with a certification denial or a
// storage failure. Two invariants govern what cancellation can leave
// behind. First, never an un-journaled grant: cancellation is
// detected between scheduling steps, so exactly the grants journaled
// before the detection point survive — never a partial one, and
// every journaled admission is kept. Second, cancel equals abort: a
// cancelled run's in-flight transactions are retracted through the
// certifier's ordinary Retract path (journaled like any other
// retraction), so the monitor, the WAL, and the versioned store's
// retention floor end in exactly the state a completed run that
// aborted those transactions would have left — wal.Resume recovers a
// verdict-identical monitor either way.
//
// The gates shut down in two stages. Drain (see Drainer, AsDrainer)
// stops new admissions — refused with ErrDraining — then settles
// in-flight transactions per the DrainPolicy (DrainWait lets them
// finish, DrainAbort retracts them immediately), flushes the journal
// barrier, runs a final compact pass, and cuts a recovery snapshot;
// it always terminates within its context's deadline, retracting the
// unfinished remainder and returning the typed error when time runs
// out. Close is the terminal latch (ErrGateClosed) and releases the
// journal; a closing wal.Writer interrupts any retry backoff in
// progress rather than sleeping out the schedule. The posture —
// Draining, Closed, plus the degradation mode and counters — rides
// in Health(). `make cancel-matrix` runs the ROBUST2 differential:
// seeded trials arm one deterministic cancel at every point class
// (admission ticks, journal writes and syncs, commit turns, drain
// steps) and verify the two invariants plus recovery, raced at
// pinned GOMAXPROCS=1 and 8; failures dump replayable
// cancel-failed-<seed>.json cases for pwsrfuzz -mode cancel.
//
// # Quick start
//
//	sys := pwsr.NewSystem(pwsr.MustParseICFromConjuncts("a > 0 -> b > 0", "c > 0"),
//	    pwsr.UniformInts(-20, 20, "a", "b", "c"))
//	s := pwsr.MustParseSchedule("w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1)")
//	fmt.Println(sys.CheckPWSR(s).PWSR)                  // true
//	rep, _ := sys.CheckStrongCorrectness(s, pwsr.Ints(map[string]int64{"a": -1, "b": -1, "c": 1}))
//	fmt.Println(rep.StronglyCorrect)                    // false — the paper's Example 2
//
// See examples/ for runnable programs: a quickstart, the CAD/CAM
// long-transaction study, the multidatabase (local serializability)
// study, and the university registration scenario of Section 2.3.
package pwsr
