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
//     delayed-read gate, and the PWSR certification gate — plus
//     abort/restart support: the gate (an exec.Gate) can resolve a
//     stall by sacrificing a victim, whose attempt the engine
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
//     in the core package comment; internal/core, internal/intern),
//   - a crash-safe durability layer: the monitor mirrors its
//     lifecycle stream (Observe/Retract/Commit/Compact) to a pluggable
//     sink, and internal/wal is the reference sink — a framed,
//     CRC-protected, group-committed write-ahead log whose snapshots
//     ride the compactor's low watermark, with recovery that rebuilds
//     a verdict-identical monitor from whatever durable prefix
//     survives a crash (a kill-at-every-byte-offset differential
//     asserts this), fail-stop semantics when the device dies, and
//     Resume to continue a certifier across a restart (internal/wal).
//
// The certification gate (pwsr.NewOptimisticCertify) resolves a stall
// by aborting its blocker — the live writer the immune transaction's
// delayed read waits on — or else a victim chosen by a pluggable
// policy, youngest or fewest-ops; it is cascadeless, so its schedules
// are PWSR and delayed-read by construction and Theorem 2 applies to
// every completed run of correct programs. Independent engine
// runs may execute concurrently, each pwsr.Run on its own goroutine
// with its own policy: policies are stateful, so one value must not be
// handed to two concurrent runs. The gate commits
// finished transactions to its certifier, whose compactor keeps the
// resident population bounded across arbitrarily long streams; the
// engine surfaces the lifecycle counters through Metrics.Gate.Compact
// (the gate's one Stats snapshot, journal counters and health
// included).
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
// (sched's AdmitTxn over the monitor's AdmitSequence), making
// the committed schedule PWSR by construction; the batch-rw workload
// of the end-to-end benchmark measures it (benchmark/README.md).
// Admission is the observe loop alone: a fresh transaction admitted
// whole gains conflict edges only into itself, so it can close no cycle
// and is never probed, never denied, never rolled back
// (core.Monitor.AdmitSequence; TestFreshSequenceNeverDenied). A batch
// costs what is in it (PERF17) and allocates only what its Result owns
// — the schedule, Final and the metrics (PERF19): attempts and readers
// record their operations, and reads their stamps, in arenas their
// worker keeps across batches, and run on the worker's one
// program.Machine; the engine keeps its id lists, attempt slab and
// committed-operation buffer; the commit applies the write operations
// themselves; a declared reader's program was judged read-only when it
// was built (program.ReadOnly); the store's accounting and floor moves
// visit what was written, not every item; and the certifier recycles
// what a compaction pass reclaims. Copying the final state into
// Result.Final is the one step proportional to the store.
//
// The admission hot path is allocation-free in steady state: the
// monitor interns transactions once into dense tables, keeps edge
// reference counts in an open-addressing table, and pools every search
// and replay scratch buffer. Compaction keeps it so: a pass filters
// every table in place, keeping its capacity, and hands a reclaimed
// transaction's node slots, lists and table entries to the next fresh
// ones, so a steady commit stream allocates nothing per transaction
// either (TestZeroAllocFreshAdmission). What a
// certifier retains is bounded by the largest population it held
// between two passes (the core package comment states the bound).
//
// The certification gate ticks incrementally: a tick costs what changed
// since the last one, not what is pending. The gate carries its
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
// bookkeeping. EXPERIMENTS.md PERF15 records the effect. Building also
// gives each let, assignment, if and while a form: an expression or
// condition that is a variable or an integer literal, or two of them
// under one operator, is evaluated inline over the slots; everything
// else, and any operand the inline path cannot compute, goes to
// constraint.EvalExpr and EvalFormula, the one general evaluator
// (PERF21).
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
// the Machine, and Reset, to the name-keyed reference interpreter. Like a
// batch, a tick round allocates only what its Result owns — the
// schedule, Final and the metrics — and its View, whose identity tells a
// gate a new run has begun (PERF20): the per-transaction slab with its
// Machines, which keep their slot arrays from program to program, the
// schedule arena, the engine's lists and the View's maps come from one
// pool of run states that RunCtx calls share, and the Result's schedule
// is copied out of the arena, so a later round cannot change an earlier
// Result (TestTickRunsOwnTheirResults).
//
// Benchmarks for the certification hot path and the scheduling-policy
// studies live in bench_test.go (run `make bench`, and see
// BenchmarkCertifyPolicies/BenchmarkMonitorRetract for the PERF5
// family); EXPERIMENTS.md records their outputs, and `make bench`
// checks the machine-readable trajectories into BENCH_monitor.json,
// BENCH_compact.json, and BENCH_wal.json (`make bench-wal`
// regenerates the PERF9 durability study alone through `pwsrbench
// -section wal -out BENCH_wal.json`; every file opens with the host's
// go/goos/goarch/host_cpus/gomaxprocs fingerprint so a timing is never
// mistaken for one taken on other hardware). `make check` is the one
// test gate, and it runs whole suites, never lists and never -short:
// gofmt and `go vet`, the full suite without the race detector (the
// zero-allocation hot-path pins run only there) and with it, the
// concurrency-sensitive packages (core, sched, exec, wal, experiments)
// raced again at GOMAXPROCS=1 and 8 — the wal crash differential, the
// parallel engine's and the multiversion read path's differentials and
// the chaos and cancel differentials among them — then every benchmark
// once and every native fuzz target for 15 seconds.
//
// # Fail-stop
//
// A journaled gate has one response when its storage dies: fail-stop.
// The first record the journal refuses — a grant's barrier, a settle's
// sync, a drain's compact record or snapshot cut — latches the error,
// the gate stops granting, and the engine surfaces exec.ErrJournalDown.
// So the write-ahead invariant holds without exception: no grant is
// ever acknowledged whose record cannot reach the log, and every
// Result a run returns is durable. A transient outage is bridged below
// the gate by the writer's bounded retries, never by acknowledging
// against memory; past them the fail-stop is final, and the log
// continues only through wal.Resume from its durable prefix. The
// three ways a run stops short are errors.Is-distinguishable:
// ErrStall (scheduling), ErrJournalDown (storage) and
// ErrCanceled/ErrDeadline (the caller's context). The gate's live
// posture (the latched error, the drain and close posture) surfaces
// through Health() and the engine's Metrics.Gate.Health.
//
// The internal/fault package is the deterministic injection plane that
// tests all of this: seeded, occurrence-counted fault plans (JSON
// round-trippable, replayable) fire at backend writes and syncs,
// journal barriers, gate ticks, and parallel-engine commit turns.
// internal/experiments runs the two differentials on one seeded trial
// harness: a trial builds the journaled pipeline, runs it on either
// engine, and ends with the same journal check — the absorbed event
// stream replayed, recovered and, for cancel trials, resumed, each
// verdict-identical. TestChaosDifferential is ROBUST1: randomized fault
// plans, each trial lockstep-compared against its uninjected twin for
// schedule, verdict, and durable-prefix equality. `make check` runs
// both differentials under the race detector at pinned GOMAXPROCS=1
// and 8. A failing trial dumps as <chaos|cancel>-failed-<seed>.json. A
// chaos dump is for reading: RunChaosTrial of its seed is the replay.
//
// # Lifecycle: cancellation, deadlines, and drain
//
// Every run entry point takes a context — Run and RunParallel —
// and termination always surfaces as one of two typed errors: ErrCanceled (explicit cancel)
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
// verdict-identical monitor either way. A run that fails — on a
// program error, a stall or a journal outage — settles its in-flight
// transactions the same way, so it leaves no trace in the certifier
// either. Durability is owed at acknowledgment: every run exit calls
// the gate's Settle, so the commits a returned Result reports are
// durable even under group commit, where a grant's record may sit in
// memory until its group of commits fills.
//
// The gate shuts down in two stages. Drain (every Gate has it)
// stops new admissions — refused with ErrDraining — then waits for
// in-flight transactions to finish, flushes the journal barrier, runs
// a final compact pass, and cuts a recovery snapshot; it always
// terminates within its context's deadline, retracting the unfinished
// remainder and returning the typed error when the context ends (a
// drain under an already-cancelled context retracts them at once).
// Close is the terminal latch (ErrGateClosed) and releases the
// journal, whose writer retries without sleeping, so closing waits on
// no backoff. The posture —
// Draining, Closed, plus the latched journal error — rides
// in Health(). TestCancelMatrix is the ROBUST2 differential on the
// same trial harness: seeded trials arm one deterministic cancel at
// every point class (admission ticks, journal writes and syncs, commit
// turns, drain steps) and verify the two invariants plus recovery and
// resume. A cancel trial replays from its JSON: a dumped
// cancel-failed-<seed>.json replays in TestCancelReplay once moved
// under internal/experiments/testdata/cancel.
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
