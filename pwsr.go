package pwsr

import (
	"context"

	"pwsr/internal/constraint"
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/saga"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Database-state model (Section 2.1).
type (
	// Value is a tagged int64-or-string database value.
	Value = state.Value
	// DB is a (possibly partial) database state.
	DB = state.DB
	// ItemSet is a set of data-item names.
	ItemSet = state.ItemSet
	// Schema maps data items to finite domains.
	Schema = state.Schema
	// Domain is a finite, enumerable value domain.
	Domain = state.Domain
	// IntRange is the integer interval domain [Lo, Hi].
	IntRange = state.IntRange
)

// Int builds an integer Value.
func Int(v int64) Value { return state.Int(v) }

// Str builds a string Value.
func Str(s string) Value { return state.Str(s) }

// Ints builds a DB from integer assignments.
func Ints(assign map[string]int64) DB { return state.Ints(assign) }

// NewItemSet builds an ItemSet from names.
func NewItemSet(items ...string) ItemSet { return state.NewItemSet(items...) }

// UniformInts builds a schema giving each item the range [lo, hi].
func UniformInts(lo, hi int64, items ...string) Schema {
	return state.UniformInts(lo, hi, items...)
}

// Integrity-constraint language (Section 2.1).
type (
	// IC is an integrity constraint decomposed into conjuncts.
	IC = constraint.IC
	// Formula is a quantifier-free first-order formula.
	Formula = constraint.Formula
	// Checker decides consistency of full and restricted states.
	Checker = constraint.Checker
)

// ParseIC parses a formula and splits its top-level conjunction.
func ParseIC(src string) (*IC, error) { return constraint.ParseIC(src) }

// ParseICFromConjuncts parses each source as one conjunct, preserving
// the grouping.
func ParseICFromConjuncts(srcs ...string) (*IC, error) {
	return constraint.ParseICFromConjuncts(srcs...)
}

// MustParseICFromConjuncts is ParseICFromConjuncts that panics on
// error.
func MustParseICFromConjuncts(srcs ...string) *IC {
	ic, err := constraint.ParseICFromConjuncts(srcs...)
	if err != nil {
		panic(err)
	}
	return ic
}

// ParseFormula parses a bare formula.
func ParseFormula(src string) (Formula, error) { return constraint.ParseFormula(src) }

// NewChecker builds a consistency checker for an IC over a schema.
func NewChecker(ic *IC, schema Schema) *Checker { return constraint.NewChecker(ic, schema) }

// Transactions and schedules (Section 2.2).
type (
	// Op is a value-carrying operation.
	Op = txn.Op
	// Transaction is a totally ordered operation set.
	Transaction = txn.Transaction
	// Schedule is an interleaving of transactions.
	Schedule = txn.Schedule
	// Structure is a value-erased operation sequence (struct(seq)).
	Structure = txn.Structure
)

// R builds an integer-valued read operation.
func R(txnID int, entity string, v int64) Op { return txn.R(txnID, entity, v) }

// W builds an integer-valued write operation.
func W(txnID int, entity string, v int64) Op { return txn.W(txnID, entity, v) }

// NewSchedule builds a schedule from operations in order.
func NewSchedule(ops ...Op) *Schedule { return txn.NewSchedule(ops...) }

// ParseSchedule parses the textual notation "r1(a, 0), w2(d, 0), …".
func ParseSchedule(src string) (*Schedule, error) { return txn.ParseSchedule(src) }

// MustParseSchedule is ParseSchedule that panics on error.
func MustParseSchedule(src string) *Schedule { return txn.MustParseSchedule(src) }

// Serializability.

// IsCSR reports conflict serializability of the whole schedule.
func IsCSR(s *Schedule) bool { return serial.IsCSR(s) }

// SerializationOrder returns one serialization order, if any.
func SerializationOrder(s *Schedule) ([]int, bool) { return serial.SerializationOrder(s) }

// Transaction programs (Section 2.2, 3.1).
type (
	// Program is a TPL transaction program.
	Program = program.Program
	// Interp executes programs.
	Interp = program.Interp
	// FixedStructureReport is the result of a Definition 3 check.
	FixedStructureReport = program.FixedStructureReport
	// CorrectnessReport is the result of an isolation-correctness
	// check.
	CorrectnessReport = program.CorrectnessReport
)

// ParseProgram parses TPL source ("program TP1 { … }").
func ParseProgram(src string) (*Program, error) { return program.Parse(src) }

// MustParseProgram is ParseProgram that panics on error.
func MustParseProgram(src string) *Program { return program.MustParse(src) }

// NewInterp returns a strict-discipline interpreter.
func NewInterp() *Interp { return program.NewInterp() }

// CheckFixedStructure decides Definition 3 (statically, exhaustively,
// or by sampling).
func CheckFixedStructure(p *Program, schema Schema, samples int, seed int64) (*FixedStructureReport, error) {
	return program.CheckFixedStructure(p, schema, samples, seed)
}

// CheckCorrectness verifies a program preserves the IC in isolation.
func CheckCorrectness(p *Program, checker *Checker, trials int, seed int64) (*CorrectnessReport, error) {
	return program.CheckCorrectness(p, checker, trials, seed)
}

// Balance rewrites a program into fixed-structure form (TP → TP',
// Section 3.1).
func Balance(p *Program) (*Program, error) { return program.Balance(p) }

// Core theory (Sections 2.3 and 3).
type (
	// System bundles an IC with its schema and exposes the paper's
	// judgments.
	System = core.System
	// PWSRReport is a Definition 2 verdict.
	PWSRReport = core.PWSRReport
	// StrongCorrectnessReport is a Definition 1 verdict.
	StrongCorrectnessReport = core.StrongCorrectnessReport
	// Verdict is the three-theorem analysis of a schedule.
	Verdict = core.Verdict
	// AnalyzeOptions configures System.Analyze.
	AnalyzeOptions = core.AnalyzeOptions
)

// NewSystem builds a System.
func NewSystem(ic *IC, schema Schema) *System { return core.NewSystem(ic, schema) }

// CheckPWSR decides Definition 2 against an explicit partition.
func CheckPWSR(s *Schedule, partition []ItemSet) *PWSRReport {
	return core.CheckPWSR(s, partition)
}

// ViewSet computes VS(Ti, p, d, S) of Lemma 2.
func ViewSet(s *Schedule, d ItemSet, order []int, i int, p Op) ItemSet {
	return core.ViewSet(s, d, order, i, p)
}

// ViewSetDR computes the delayed-read view set of Lemma 6.
func ViewSetDR(s *Schedule, d ItemSet, order []int, i int, p Op) ItemSet {
	return core.ViewSetDR(s, d, order, i, p)
}

// TxnState computes state(Ti, d, S, DS1) of Definition 4.
func TxnState(s *Schedule, d ItemSet, order []int, i int, initial DB) DB {
	return core.TxnState(s, d, order, i, initial)
}

// Monitor is the online PWSR certifier: feed it operations one at a
// time and it reports the first operation that makes some conjunct's
// projection non-serializable. It carries full transaction lifecycle:
// Retract rolls an aborted transaction out, Commit marks one
// finished, and Compact physically reclaims committed transactions no
// future conflict cycle can reach, so a long-lived certifier's memory
// stays bounded by the concurrent window.
type Monitor = core.Monitor

// CompactStats reports a certifier's transaction-lifecycle counters
// (compaction passes, reclaimed transactions and log entries, and the
// resident population).
type CompactStats = core.CompactStats

// NewMonitor builds an online PWSR monitor over a conjunct partition.
func NewMonitor(partition []ItemSet) *Monitor { return core.NewMonitor(partition) }

// EncodeHistory serializes an initial state plus schedule as the JSON
// history format consumed by cmd/pwsrcheck -history.
func EncodeHistory(initial DB, s *Schedule) ([]byte, error) {
	return txn.EncodeHistory(initial, s)
}

// DecodeHistory parses a JSON history, validating that the schedule
// replays from the recorded initial state.
func DecodeHistory(data []byte) (DB, *Schedule, error) {
	return txn.DecodeHistory(data)
}

// Concurrent execution (the engine and policies).
type (
	// RunConfig configures a concurrent run.
	RunConfig = exec.Config
	// RunResult is a recorded concurrent run.
	RunResult = exec.Result
	// Policy decides the interleaving.
	Policy = exec.Policy
	// Metrics are virtual-clock measurements.
	Metrics = exec.Metrics
	// DelayedRead is the DR gate wrapper policy (Section 3.2).
	DelayedRead = sched.DelayedRead
	// Workload is a generated or hand-built system-plus-programs
	// bundle.
	Workload = gen.Workload
)

// Run executes programs concurrently under a policy. Transactions
// declared read-only (RunConfig.ReadOnly, optionally scheduled by
// RunConfig.ROBegin) are served from multiversion snapshots of the
// committed prefix: they bypass the policy and any certification gate
// entirely, can neither be denied nor aborted, and their operations
// are spliced into the recorded schedule at their snapshot's prefix —
// the combined schedule stays PWSR (see internal/exec/mvread.go).
//
// When ctx ends mid-run the engine settles instead of killing the run:
// in-flight transactions are aborted through the policy's retraction
// path — a certifying gate retracts and journals each exactly as a
// completed run that aborted them would — and the partial Result (the
// committed schedule that survives, replayable against Initial) is
// returned alongside a typed ErrCanceled- or ErrDeadline-wrapped error.
// Concurrent calls are safe when each run has its own policy (see
// exec.RunCtx).
func Run(ctx context.Context, cfg RunConfig) (*RunResult, error) {
	return exec.RunCtx(ctx, cfg)
}

// Typed run-failure causes, errors.Is-distinguishable so callers can
// tell scheduling livelock from storage failure.
var (
	// ErrStall is a scheduling stall: no pending request is grantable
	// and the policy cannot resolve it.
	ErrStall = exec.ErrStall
	// ErrJournalDown is a latched journal fail-stop, the gate's one
	// response to a journal failure: it refuses to acknowledge grants
	// it cannot make durable.
	ErrJournalDown = exec.ErrJournalDown
	// ErrReadOnlyWrite is a transaction declared read-only
	// (RunConfig.ReadOnly / ParallelRunConfig.ReadOnly) whose program
	// writes a shared item — the declaration is a contract and the run
	// is rejected before anything executes.
	ErrReadOnlyWrite = exec.ErrReadOnlyWrite
	// ErrSnapshotRetired is a multiversion snapshot request below the
	// store's retention floor: the certifier's Compact watermark
	// already reclaimed those versions.
	ErrSnapshotRetired = exec.ErrSnapshotRetired
)

// Typed lifecycle errors: cancellation, deadline expiry, and gate
// shutdown are never confused with a certification denial or a storage
// failure — callers route on errors.Is without ambiguity.
var (
	// ErrCanceled is a run, batch admission, or drain cut short by an
	// explicit context cancel. In-flight transactions were aborted
	// through the certifier's retraction path (cancel equals abort);
	// any partial result holds exactly the committed prefix.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadline is the deadline-expiry flavor of ErrCanceled, with
	// the same abort-and-settle semantics.
	ErrDeadline = exec.ErrDeadline
	// ErrDraining is an admission refused because the gate is
	// draining: in-flight transactions may finish, new ones may not.
	ErrDraining = exec.ErrDraining
	// ErrGateClosed is an admission refused because the gate has been
	// closed.
	ErrGateClosed = exec.ErrGateClosed
)

// Gate is the certification gate (NewOptimisticCertify): a Policy for
// Run and a BatchGate for RunParallel that names victims at stalls, is
// told of aborted and cancelled attempts, and drains gracefully — Drain
// stops new admissions, waits for in-flight transactions to finish,
// flushes the journal barrier, runs a final compact pass, and cuts a
// recovery snapshot, always within the context's deadline, returning
// nil on a complete drain or a typed ErrCanceled/ErrDeadline error on
// the remainder. See exec.Gate for the whole contract.
type Gate = exec.Gate

// Health is a journaled gate's live posture: the latched journal error
// (nil while healthy) and the drain and close posture.
// Policies that journal expose it (and it rides in
// Metrics.Gate.Health).
type Health = exec.Health

// NewScript returns the scripted policy (fixed grant order).
func NewScript(order ...int) Policy { return sched.NewScript(order...) }

// NewRandom returns the seeded uniform policy.
func NewRandom(seed int64) Policy { return sched.NewRandom(seed) }

// NewRoundRobin returns the rotating policy.
func NewRoundRobin() Policy { return &sched.RoundRobin{} }

// NewSerialPolicy runs transactions one at a time.
func NewSerialPolicy() Policy { return &sched.Serial{} }

// NewC2PL returns conservative strict two-phase locking (serializable
// schedules).
func NewC2PL() Policy { return sched.NewC2PL() }

// NewPW2PL returns predicate-wise conservative 2PL (PWSR schedules;
// supply the conjunct partition via RunConfig.DataSets).
func NewPW2PL() Policy { return sched.NewPW2PL() }

// NewDegree2 returns degree-2 consistency (cursor stability): DR
// schedules without the PWSR guarantee — the ad-hoc criterion the
// paper's conclusion contrasts with PWSR.
func NewDegree2() Policy { return sched.NewDegree2() }

// VictimPolicy selects which transaction the certification gate
// sacrifices at a stall its blocker rule leaves open; -1 declines, and
// the run stalls.
type VictimPolicy = sched.VictimPolicy

// Victim-selection policies for NewOptimisticCertify.
var (
	// VictimYoungest sacrifices the latest-started candidate — the
	// default, consulted where the immune transaction waits on no
	// candidate's write.
	VictimYoungest VictimPolicy = sched.VictimYoungest
	// VictimFewestOps sacrifices the candidate with the least granted
	// work.
	VictimFewestOps VictimPolicy = sched.VictimFewestOps
)

// NewOptimisticCertify returns the PWSR certification gate: pending
// operations are filtered through an online Monitor so the inner policy
// only ever sees operations whose admission keeps every conjunct's
// projection serializable, and stalls are resolved by sacrificing a
// victim, which is retracted from the monitor and restarted by the
// engine: the live writer the immune (solo or most-aborted)
// transaction's delayed read waits on where it is a candidate, else the
// victim policy's choice (nil = VictimYoungest). The gate is
// cascadeless (delayed reads), so its schedules are PWSR and DR by
// construction — for correct programs, strongly correct by Theorem 2.
// A run stalls only when the victim policy declines a stall no blocker
// resolves or the inner policy declines admissible requests; the gate
// sacrifices no victim for the latter.
func NewOptimisticCertify(partition []ItemSet, inner Policy, victim VictimPolicy) Gate {
	return sched.NewOptimisticCertify(partition, inner, victim)
}

// ParallelRunConfig configures a block-parallel batch execution (see
// RunParallel).
type ParallelRunConfig = exec.ParallelConfig

// BatchGate admits whole transactions at the parallel engine's commit
// point.
type BatchGate = exec.BatchGate

// RunParallel executes a batch of independent programs with the
// block-parallel engine: workers run programs speculatively against a
// shared versioned store, commits land strictly in ascending-id order
// (stale reads trigger bounded retry and, at the commit turn, one
// authoritative re-execution), and each committing transaction is
// admitted whole through the configured certification gate — a
// NewOptimisticCertify value — so the committed schedule
// is PWSR by construction. The result is deterministic: identical
// schedule and final state to the serial
// ascending-id run at any worker count. Transactions declared
// read-only (ParallelRunConfig.ReadOnly) skip the pipeline: each
// acquires a pinned snapshot of the committed prefix, is never denied
// or aborted, and never enters the gate — reader throughput decouples
// from writer contention. Cancellation is detected between
// commit turns, so when ctx ends the batch's committed prefix is kept —
// never a partial grant — and returned with the typed
// ErrCanceled/ErrDeadline error.
func RunParallel(ctx context.Context, cfg ParallelRunConfig, programs map[int]*Program) (*RunResult, error) {
	return exec.RunParallelCtx(ctx, cfg, programs)
}

// Saga is a transaction program decomposed into per-conjunct
// subtransactions (the introduction's second relaxation approach).
type Saga = saga.Saga

// DecomposeSaga splits a straight-line program into per-data-set
// subtransactions; step-serializable executions of the result are PWSR
// over the partition.
func DecomposeSaga(p *Program, partition []ItemSet) (*Saga, error) {
	return saga.Decompose(p, partition)
}

// FlattenSagas numbers every saga step as an independent transaction
// for the execution engine.
func FlattenSagas(sagas []*Saga) (map[int]*Program, [][]int) {
	return saga.Flatten(sagas)
}
