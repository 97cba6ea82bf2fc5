// Package exec implements the concurrent execution engine: a set of
// transaction programs run interleaved against a shared store, with a
// pluggable interleaving policy deciding which program's next operation
// is granted at each step. The engine records the resulting schedule
// with values — the object the paper's theory studies — along with
// virtual-clock metrics (waits, turnaround) used by the performance
// experiments.
//
// # Transport
//
// There is none. Each program attempt is a program.Machine held in the
// engine's per-transaction state: stepping it runs the interpreter, on
// the engine's own stack, up to the attempt's next operation, which
// becomes the attempt's one Request, parked until the policy grants it.
// A granted read is applied and its value delivered to the Machine; a
// granted write is applied, the Machine having already moved past it.
// The engine asks the policy to pick only when every live program is
// parked on a request, so after the first round exactly one program has
// anything to do — the one just granted — and stepping programs one at a
// time loses no parallelism. The runnable attempts are stepped in
// ascending transaction id order, so execution is deterministic for
// deterministic policies, including the order of completion
// notifications: programs that finish in the same gather report
// TxnFinished in ascending id order. An attempt that must go — a victim,
// a cancelled transaction, a run that failed elsewhere — needs no
// unwinding: a suspended Machine is a value, holding no stack and no
// goroutine. RunCtx starts nothing, so there is nothing for it to stop;
// a program panic happens on the caller's stack.
//
// # Abort and restart semantics
//
// A policy implementing the optional Restarter extension can resolve a
// stall by sacrificing a victim instead of killing the run. Because
// writes are granted operations — applied to the shared store the
// moment the policy grants them, not buffered to commit time — aborting
// a transaction means erasing an attempt that has already touched
// shared state. The engine makes the erasure exact:
//
//   - the attempt's granted operations are expunged from the recorded
//     schedule (positions are reassigned, metrics count them as wasted);
//   - its writes are undone from the schedule itself, which is every
//     item's write history: an item the attempt wrote takes the value
//     (and LastWriter) of its latest surviving write, or of the initial
//     state when none survives;
//   - any live transaction that read one of the victim's written values
//     is aborted with it (cascading), recursively, since its execution
//     consumed state that is being erased;
//   - a victim whose written value was read by a transaction that
//     already finished is pinned — finished transactions are durable
//     and cannot be cascaded — so such a victim is ineligible
//     (View.AbortClosure reports eligibility).
//
// After the erasure every aborted program restarts by resetting its
// Machine: slots zeroed in place, control back at the first statement,
// the step budget whole. Nothing of the erased attempt — no cached read,
// no local, no written mark — is left for the new one to see, and
// nothing is allocated: it re-reads current values and may take
// different branches than its aborted attempt. The recorded schedule
// therefore contains exactly the operations of surviving attempts and
// replays value-consistently against the initial state, as if the
// aborted attempts had never run.
package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"

	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrStall is returned when the policy cannot grant any pending request
// (a deadlock under blocking policies such as the delayed-read gate).
var ErrStall = errors.New("exec: no grantable request (stall)")

// Request is a pending operation request from a program: the operation
// its attempt is parked on until the policy grants it. Every attempt
// owns exactly one Request, refilled for each operation; the pointer a
// policy sees is only meaningful during the Pick or Victim call.
type Request struct {
	TxnID  int
	Action txn.Action
	Entity string
	Value  state.Value // proposed value, for writes
}

// String renders the request like an operation without a value for
// reads.
func (r *Request) String() string {
	if r.Action == txn.ActionRead {
		return fmt.Sprintf("r%d(%s, ?)", r.TxnID, r.Entity)
	}
	return fmt.Sprintf("w%d(%s, %s)", r.TxnID, r.Entity, r.Value)
}

// AccessDecl declares the items a transaction may read and write, used
// by conservative locking policies. Writes are implicitly readable.
type AccessDecl struct {
	Reads  state.ItemSet
	Writes state.ItemSet
}

// DeclareAccess derives a conservative access declaration from a
// program: assignment targets are writes, every other mentioned item a
// read.
func DeclareAccess(p *program.Program) AccessDecl {
	all := p.DataItems()
	writes := writeTargets(p)
	return AccessDecl{Reads: all.Diff(writes), Writes: writes}
}

func writeTargets(p *program.Program) state.ItemSet {
	writes := state.NewItemSet()
	locals := state.NewItemSet()
	var visit func(stmts []program.Stmt)
	visit = func(stmts []program.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *program.Let:
				locals.Add(n.Name)
			case *program.Assign:
				if !locals.Contains(n.Target) {
					writes.Add(n.Target)
				}
			case *program.If:
				visit(n.Then)
				visit(n.Else)
			case *program.While:
				visit(n.Body)
			}
		}
	}
	visit(p.Body)
	return writes
}

// Restarter is an optional Policy extension: a policy that resolves
// stalls by aborting and restarting a victim transaction (the
// optimistic reading of certification — sched.OptimisticCertify is the
// canonical implementation). When every pending request is ungrantable
// (Pick returned -1) and the policy implements Restarter, the engine
// asks for a victim instead of failing with ErrStall; the victim and
// its cascade closure (see View.AbortClosure) are aborted per the
// package's abort semantics and respawned, and the run continues.
type Restarter interface {
	Policy
	// Victim returns the index (into pending) of the transaction to
	// abort and restart, or -1 to give up and let the run fail with
	// ErrStall. Implementations should only return transactions whose
	// View.AbortClosure is eligible.
	Victim(pending []*Request, v *View) int
	// TxnAborted notifies the policy that a transaction's attempt was
	// erased — called once per closure member, after its operations
	// were expunged and its store effects undone, before its program
	// respawns. Certifying policies retract the transaction from their
	// monitor here.
	TxnAborted(id int, v *View)
}

// View is the engine state a policy may consult when picking.
type View struct {
	// Store is the current database state. Policies must not mutate it.
	Store state.DB
	// Ops is the schedule recorded so far.
	Ops txn.Seq
	// Live reports transactions still executing.
	Live map[int]bool
	// Finished reports transactions that have completed.
	Finished map[int]bool
	// LastWriter maps each item to the transaction that last wrote it
	// (0 = initial state). Used by the delayed-read gate.
	LastWriter map[string]int
	// DataSets is the conjunct partition d1, …, dl (for predicate-wise
	// policies; may be nil).
	DataSets []state.ItemSet
	// Clock is the number of operations granted so far.
	Clock int

	// procs is the run's per-transaction state, ascending by id.
	procs []proc
	// programs and declared are what AccessOf derives declarations from
	// (Config.Programs and Config.Access); access caches its answers.
	programs map[int]*program.Program
	declared map[int]AccessDecl
	access   map[int]AccessDecl
}

// proc returns the run state of transaction id, or nil for an id the
// tick loop does not run.
func (v *View) proc(id int) *proc {
	i := sort.Search(len(v.procs), func(i int) bool { return v.procs[i].id >= id })
	if i == len(v.procs) || v.procs[i].id != id {
		return nil
	}
	return &v.procs[i]
}

// FirstOp returns the position in Ops of transaction id's first
// surviving operation; started is false while it has none. The engine
// maintains it, so victim policies need not scan Ops.
func (v *View) FirstOp(id int) (pos int, started bool) {
	if p := v.proc(id); p != nil && p.tm.Ops > 0 {
		return p.first, true
	}
	return 0, false
}

// OpCount returns how many of Ops belong to transaction id.
func (v *View) OpCount(id int) int {
	if p := v.proc(id); p != nil {
		return p.tm.Ops
	}
	return 0
}

// AccessOf returns transaction id's declared access set: the Config's
// override when it has one, otherwise the declaration DeclareAccess
// derives from the program, computed on first use — only conservative
// locking policies ask.
func (v *View) AccessOf(id int) AccessDecl {
	if a, ok := v.access[id]; ok {
		return a
	}
	a, ok := v.declared[id]
	if p := v.programs[id]; !ok && p != nil {
		a = DeclareAccess(p)
	}
	if v.access == nil {
		v.access = make(map[int]AccessDecl)
	}
	v.access[id] = a
	return a
}

// AbortClosure returns the set of transactions (sorted, id included)
// that must abort together if id is aborted: every live transaction
// that — directly or transitively — read a value written by a member.
// The second result is false when id is not live or when some member's
// written value was read by a finished transaction (finished
// transactions are durable, so such a victim is pinned and ineligible).
// Callers must not modify the returned slice.
func (v *View) AbortClosure(id int) ([]int, bool) {
	if !v.Live[id] {
		return nil, false
	}
	p := v.proc(id)
	if len(p.readers) == 0 {
		// Nobody read from id — every closure under a delayed-read gate —
		// so a victim search over the whole pending list allocates nothing.
		p.self[0] = id
		return p.self[:], true
	}
	closure := []int{id}
	for i := 0; i < len(closure); i++ {
		for _, r := range v.proc(closure[i]).readers {
			if slices.Contains(closure, r.id) {
				continue
			}
			if v.Finished[r.id] {
				return nil, false
			}
			closure = append(closure, r.id)
		}
	}
	sort.Ints(closure)
	return closure, true
}

// PassTick may be returned by Policy.Pick to let one clock tick elapse
// without granting any operation — modelling coordination latency (e.g.
// a global lock manager's cross-site round trips). All pending
// transactions accrue wait time during a passed tick.
const PassTick = -2

// maxConsecutivePasses bounds runaway PassTick loops.
const maxConsecutivePasses = 1 << 20

// opsPerProgramHint sizes a run's schedule buffer up front, so a round
// of short transactions does not grow it from nil one doubling at a
// time.
const opsPerProgramHint = 8

// Policy decides the interleaving: given the pending requests (one per
// live transaction, sorted by transaction id), it returns the index of
// the request to grant, -1 if none can be granted now (a stall), or
// PassTick to burn one clock tick.
type Policy interface {
	// Pick selects the next request. Lock-based policies acquire their
	// locks inside Pick.
	Pick(pending []*Request, v *View) int
	// TxnFinished notifies that a transaction completed (for lock
	// release).
	TxnFinished(id int, v *View)
}

// ShardStat is one certification shard's admission counters, as
// reported by a policy backed by a sharded certifier
// (sched.ParallelCertify over core.ShardedMonitor).
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Conjuncts is the number of conjuncts the shard owns.
	Conjuncts int
	// Observes counts operations fed to the shard's graphs.
	Observes int64
	// Probes counts admissibility probes the shard evaluated.
	Probes int64
	// Denials counts probes the shard rejected.
	Denials int64
}

// ShardReporter is an optional Policy extension: a policy whose
// certifier is sharded reports per-shard admission counters, which the
// engine copies into Metrics.Shards at the end of a run.
type ShardReporter interface {
	Policy
	// ShardStats snapshots the per-shard counters.
	ShardStats() []ShardStat
}

// CompactStats is a certifying policy's transaction-lifecycle
// counters, as reported by a policy whose certifier commits finished
// transactions and compacts them away (the sched certification gates
// over core.Monitor/core.ShardedMonitor).
type CompactStats struct {
	// Compactions counts compaction passes the certifier ran.
	Compactions int
	// ReclaimedTxns counts transactions physically reclaimed from
	// certification state.
	ReclaimedTxns int
	// ReclaimedOps counts certifier access-log entries reclaimed.
	ReclaimedOps int
	// LiveTxns is the certifier's resident transaction count when the
	// snapshot was taken.
	LiveTxns int
}

// CompactionReporter is an optional Policy extension: a certifying
// policy with transaction lifecycle reports its compaction counters,
// which the engine copies into Metrics at the end of a run.
type CompactionReporter interface {
	Policy
	// CompactionStats snapshots the lifecycle counters.
	CompactionStats() CompactStats
}

// ProbeStats is a certifying policy's admission probe-cache counters:
// Hits are Admissible probes answered from a still-valid memoized
// verdict, Misses are first-time probes, and Invalidations are probes
// whose cached verdict a generation move invalidated (recomputed and
// re-cached).
type ProbeStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// ProbeReporter is an optional Policy extension: a certifying policy
// whose monitor memoizes Admissible verdicts reports the cache
// counters, which the engine copies into Metrics at the end of a run.
type ProbeReporter interface {
	Policy
	// ProbeStats snapshots the probe-cache counters.
	ProbeStats() ProbeStats
}

// LogStats is a journaled certifying policy's durability counters, as
// reported by a gate whose certifier writes a write-ahead lifecycle
// log (sched.AttachJournal over internal/wal).
type LogStats struct {
	// Records is the number of lifecycle records appended.
	Records int64
	// LogBytes counts every byte handed to the log backend.
	LogBytes int64
	// Fsyncs counts the backend syncs (group commit amortizes these
	// across records).
	Fsyncs int64
	// Snapshots counts completed snapshot cuts.
	Snapshots int64
	// Retries counts retried backend writes and syncs.
	Retries int64
	// RecoveryReplays is the number of lifecycle events replayed to
	// rebuild the certifier before this run (0 for a fresh log).
	RecoveryReplays int64
}

// LogReporter is an optional Policy extension: a certifying policy
// with an attached write-ahead journal reports its durability
// counters, which the engine copies into Metrics at the end of a run.
type LogReporter interface {
	Policy
	// LogStats snapshots the durability counters.
	LogStats() LogStats
}

// Metrics aggregates virtual-clock measurements of a run. The clock
// ticks once per granted operation.
type Metrics struct {
	// Ticks is the total number of clock ticks (granted operations).
	Ticks int
	// Waits is the total number of (transaction, tick) pairs where a
	// transaction had a request pending but another was granted.
	Waits int
	// Aborts counts aborted transaction attempts (cascade members
	// included, each restart attempt separately).
	Aborts int
	// Restarts counts program respawns after aborts.
	Restarts int
	// WastedOps counts granted operations later expunged by aborts —
	// the work the optimistic policy threw away.
	WastedOps int
	// PerTxn maps transaction id to its metrics.
	PerTxn map[int]*TxnMetrics
	// Shards holds per-shard certification counters when the policy
	// implements ShardReporter; nil otherwise.
	Shards []ShardStat
	// Compactions, ReclaimedTxns, ReclaimedOps, and LiveTxns report the
	// certifier's transaction-lifecycle counters at the end of the run
	// when the policy implements CompactionReporter; zero otherwise.
	// LiveTxns is the certifier's residual population — for a policy
	// reused across sequential runs it measures what the stream's
	// history still costs, the number the compactor keeps bounded.
	Compactions   int
	ReclaimedTxns int
	ReclaimedOps  int
	LiveTxns      int
	// ProbeHits, ProbeMisses, and ProbeInvalidations report the
	// certifier's admission probe-cache counters at the end of the run
	// when the policy implements ProbeReporter; zero otherwise. The
	// hit fraction is the share of scheduler-tick re-probes the cache
	// absorbed.
	ProbeHits          int64
	ProbeMisses        int64
	ProbeInvalidations int64
	// Health reports the gate's degradation/failover state at the end
	// of the run when the policy implements HealthReporter; zero
	// otherwise.
	Health Health
	// Log reports the certifier's write-ahead journal counters at the
	// end of the run when the policy implements LogReporter; zero
	// otherwise (including a journaled gate with no journal attached).
	Log LogStats
	// Retries counts program re-executions in a ParallelEngine batch:
	// speculative retries after failed version validations plus the
	// at-most-one authoritative re-execution at each commit turn.
	// Always zero under Run.
	Retries int
	// Conflicts counts failed version validations in a ParallelEngine
	// batch — each one is a conflicting commit the optimistic check
	// caught. Always zero under Run.
	Conflicts int
	// ROTxns counts declared read-only transactions served from
	// multiversion snapshots (never denied, never aborted); ROOps
	// counts the snapshot reads they performed. Snapshot reads do not
	// consume clock ticks: Ticks keeps counting read-write grants (and
	// passed ticks under Run) only.
	ROTxns int
	ROOps  int
	// MV is the multiversion store's retention accounting at the end
	// of the run, populated by the engines that run one (ParallelEngine
	// always, Run when read-only transactions are declared).
	MV VersionStats
}

// TxnMetrics is per-transaction timing.
type TxnMetrics struct {
	// Start is the clock value when the transaction's first operation
	// was granted.
	Start int
	// End is the clock value after the transaction's last operation.
	End int
	// Waits is the number of ticks this transaction spent with a
	// pending but ungranted request.
	Waits int
	// Ops is the number of granted operations of the surviving attempt.
	Ops int
	// Aborts is the number of times this transaction's attempt was
	// aborted and restarted.
	Aborts int
	// WastedOps counts this transaction's expunged operations.
	WastedOps int
}

// Turnaround is End - Start: the transaction's makespan in ticks.
func (m *TxnMetrics) Turnaround() int { return m.End - m.Start }

// Config configures a concurrent run.
type Config struct {
	// Programs maps transaction ids to the programs to execute.
	Programs map[int]*program.Program
	// Initial is the starting database state.
	Initial state.DB
	// Policy picks the interleaving.
	Policy Policy
	// Interp configures program execution; nil means NewInterp().
	Interp *program.Interp
	// DataSets optionally supplies the conjunct partition to policies.
	DataSets []state.ItemSet
	// Access optionally overrides the per-transaction access
	// declarations View.AccessOf reports; missing entries are derived
	// with DeclareAccess when a policy first asks.
	Access map[int]AccessDecl
	// MaxAborts bounds the total aborted attempts of a run before the
	// engine gives up with ErrStall (a livelock backstop for Restarter
	// policies); 0 means the default of 65536.
	MaxAborts int
	// ReadOnly declares transactions served from multiversion
	// snapshots instead of the tick loop: a declared transaction never
	// requests grants, never reaches the Policy (or the certification
	// gate inside it), and can neither be denied, blocked, nor
	// aborted. It reads, atomically, the state produced by the
	// engine's sealed committed prefix — the longest prefix of the
	// recorded schedule all of whose operations belong to finished
	// transactions that lie entirely inside it — and its operations
	// are spliced into the result schedule at that prefix's offset
	// (see mvread.go for the combined-schedule PWSR argument). A
	// declared program whose text writes a shared item fails the run
	// with ErrReadOnlyWrite before anything executes. Each id must
	// name a Programs entry.
	ReadOnly map[int]bool
	// ROBegin optionally schedules when each declared read-only
	// transaction acquires its snapshot, in clock ticks: the reader is
	// served at the first scheduling round whose clock has reached its
	// begin tick (missing or ≤ 0 means at run start; a tick beyond the
	// run's end means after the last writer finishes). Spreading begin
	// ticks lets tests and workloads exercise snapshots of mid-run
	// prefixes.
	ROBegin map[int]int
}

// Result is the outcome of a concurrent run.
type Result struct {
	// Schedule is the recorded schedule.
	Schedule *txn.Schedule
	// Final is the database state after the run.
	Final state.DB
	// Metrics are the virtual-clock measurements.
	Metrics Metrics
}

// proc is the engine's per-run state of one transaction: the Machine
// that interprets its current attempt and the one Request the attempt
// is parked on. step fills req from the operation the Machine stopped
// at; the engine is done with req before it steps the Machine again (the
// request has left the pending list, and policies must not retain the
// list across calls), so one Request serves every attempt and the
// admission round trip allocates nothing.
type proc struct {
	id  int
	m   program.Machine
	tm  *TxnMetrics
	req Request

	// parkedAt is the clock at which req parked: the transaction has
	// waited Clock − parkedAt ticks when req leaves the pending list.
	parkedAt int
	// first is the schedule position of the attempt's first surviving
	// operation while tm.Ops > 0; erasing marks the abort closure's
	// members during an erasure.
	first   int
	erasing bool
	// readFrom are the transactions whose written values the attempt
	// read and readers the transactions that read one of its own (the
	// wrote-to relation abort cascades follow).
	readFrom []*proc
	readers  []*proc
	self     [1]int // backs the singleton AbortClosure
}

// step runs p's attempt to its next operation, filed in req, and
// reports whether there is one; false with a nil error is the end of the
// program.
func (p *proc) step() (bool, error) {
	r, err := p.m.Step()
	if r == nil {
		return false, err
	}
	p.req = Request{TxnID: p.id, Action: r.Action, Entity: r.Item, Value: r.Value}
	return true, nil
}

// Run executes the configured programs concurrently and returns the
// recorded schedule, final state, and metrics. It is RunCtx without a
// cancellation point.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation and deadline support. It is one loop
// on the calling goroutine (see the package comment on the transport):
// it steps the runnable attempts in ascending id order until each parks
// on a request or finishes, asks the policy to pick among the parked
// requests, applies the granted operation and makes its program
// runnable. It starts no goroutine.
//
// When ctx ends mid-run the engine settles instead of killing the run:
// transactions in flight are aborted through the same erasure machinery
// a policy victim uses — their attempts are expunged from the schedule,
// their writes undone, and the policy notified through
// Canceler.TxnCanceled (falling back to Restarter.TxnAborted), so a
// certifying gate retracts and journals each one exactly as a completed
// run that aborted them would. The rare transaction whose written value
// a finished transaction already consumed cannot be erased (see the
// package comment on pinning; the cascadeless gates never produce one)
// and is retired as committed with its partial prefix instead.
//
// RunCtx then returns the partial Result — the committed schedule that
// survives, replayable against Initial — alongside a typed
// ErrCanceled- or ErrDeadline-wrapped error. Declared read-only
// transactions not yet served at the cancellation point are skipped.
// Cancellation is detected between scheduling steps, so exactly the
// grants journaled before the detection point are kept: never a
// partial one.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Programs) == 0 {
		return nil, errors.New("exec: no programs")
	}
	if err := CancelError(ctx); err != nil {
		return nil, err
	}
	interp := cfg.Interp
	if interp == nil {
		interp = program.NewInterp()
	}

	roList, err := roIDs(cfg.ReadOnly, cfg.Programs)
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(cfg.Programs))
	for id := range cfg.Programs {
		if cfg.ReadOnly[id] {
			continue // served from snapshots, never ticked
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Per-transaction state lives in slabs indexed by a dense slot —
	// tick transactions in ascending id order, then the readers — so
	// the grant path follows pointers instead of hashing ids; the
	// exported maps are filled once, here.
	procs := make([]proc, len(ids))
	tms := make([]TxnMetrics, len(ids)+len(roList))
	metrics := Metrics{PerTxn: make(map[int]*TxnMetrics, len(tms))}
	v := &View{
		Store:      cfg.Initial.Clone(),
		Live:       make(map[int]bool, len(ids)),
		Finished:   make(map[int]bool, len(ids)),
		LastWriter: make(map[string]int),
		DataSets:   cfg.DataSets,
		procs:      procs,
		programs:   cfg.Programs,
		declared:   cfg.Access,
	}
	// runnable are the attempts to resume at the next gather, ascending
	// by id: every program at first, then the one just granted or the
	// closure just restarted. parked are the attempts waiting on a
	// request, ascending by id, and list their requests — the pending
	// view handed to the policy, valid only during the call.
	runnable := make([]*proc, 0, len(ids))
	parked := make([]*proc, 0, len(ids))
	list := make([]*Request, 0, len(ids))
	for i := range tms {
		tms[i].Start = -1
	}
	for i, id := range ids {
		metrics.PerTxn[id] = &tms[i]
		procs[i].id, procs[i].tm = id, &tms[i]
		procs[i].m.Init(interp, cfg.Programs[id])
		v.Live[id] = true
		runnable = append(runnable, &procs[i])
	}
	for i, id := range roList {
		metrics.PerTxn[id] = &tms[len(ids)+i]
	}
	// owners[i] is the attempt ops[i] was granted to.
	ops := make([]txn.Op, 0, opsPerProgramHint*len(ids))
	owners := make([]*proc, 0, cap(ops))

	maxAborts := cfg.MaxAborts
	if maxAborts <= 0 {
		maxAborts = 1 << 16
	}

	// Multiversion read-path state (allocated only when read-only
	// transactions are declared): mv is the snapshot source, mvQ the
	// operation count of the sealed committed prefix published into it,
	// and roResults the completed readers awaiting the end-of-run
	// splice. The sealed prefix is immutable: its owners are finished,
	// finished transactions are never aborted (View.AbortClosure pins
	// them), and expunging a live transaction's operations can only
	// touch positions at or beyond mvQ — a live transaction's first
	// operation bounds every seal.
	var mv *VersionedStore
	var mvQ int
	var roResults []roResult
	var roServed map[int]bool
	// lastPos maps each transaction to its newest operation's position
	// in ops. It is maintained incrementally — updated as operations
	// are appended and rebuilt when an abort expunges and renumbers the
	// schedule — so advanceMV never rescans the whole schedule.
	var lastPos map[int]int
	if len(roList) > 0 {
		mv = NewVersionedStore(cfg.Initial)
		roServed = make(map[int]bool, len(roList))
		lastPos = make(map[int]int, len(cfg.Programs))
	}

	// advanceMV seals the longest transaction-closed finished prefix
	// of the recorded schedule and publishes its writes into the
	// multiversion store as one fresh stamp: the snapshot at that
	// stamp is exactly the replay of ops[0:mvQ) — committed state no
	// abort can retract.
	advanceMV := func() {
		maxPos, cut := -1, mvQ
		for i := mvQ; i < len(ops); i++ {
			o := ops[i]
			if !v.Finished[o.Txn] {
				break // a live owner's operation bounds every seal
			}
			if p := lastPos[o.Txn]; p > maxPos {
				maxPos = p
			}
			if maxPos <= i {
				cut = i + 1
			}
		}
		if cut == mvQ {
			return
		}
		writes := make(map[string]state.Value)
		for _, o := range ops[mvQ:cut] {
			if o.Action == txn.ActionWrite {
				writes[o.Entity] = o.Value
			}
		}
		mv.commit(writes)
		mvQ = cut
	}

	// serveRO runs one declared reader to completion against a pinned
	// snapshot of the sealed prefix. A program error is authoritative:
	// the snapshot is a consistent committed state.
	serveRO := func(id int) error {
		advanceMV()
		sn := mv.Acquire()
		acc := &snapshotAccessor{sn: sn, id: id}
		err := interp.Run(cfg.Programs[id], acc)
		sn.Release()
		if err != nil {
			return fmt.Errorf("exec: T%d: %w", id, err)
		}
		roResults = append(roResults, roResult{id: id, anchor: mvQ, order: len(roResults), ops: acc.ops})
		tm := metrics.PerTxn[id]
		tm.Start, tm.End, tm.Ops = v.Clock, v.Clock, len(acc.ops)
		metrics.ROTxns++
		metrics.ROOps += len(acc.ops)
		return nil
	}

	// serveDueROs serves every not-yet-served reader whose begin tick
	// the clock has reached (all of them when final).
	serveDueROs := func(final bool) error {
		for _, id := range roList {
			if roServed[id] {
				continue
			}
			if !final && cfg.ROBegin[id] > v.Clock {
				continue
			}
			roServed[id] = true
			if err := serveRO(id); err != nil {
				return err
			}
		}
		return nil
	}

	// park files p's freshly yielded request in the pending list.
	park := func(p *proc) {
		i := sort.Search(len(parked), func(i int) bool { return parked[i].id > p.id })
		parked = slices.Insert(parked, i, p)
		list = slices.Insert(list, i, &p.req)
		p.parkedAt = v.Clock
	}
	// unpark removes pending entry i — granted, erased or retired — and
	// settles its wait: one tick for every clock step it sat through,
	// the same total a per-tick walk over the pending list would count.
	unpark := func(i int) *proc {
		p := parked[i]
		parked = slices.Delete(parked, i, i+1)
		list = slices.Delete(list, i, i+1)
		p.tm.Waits += v.Clock - p.parkedAt
		metrics.Waits += v.Clock - p.parkedAt
		return p
	}
	// finish retires p as committed.
	finish := func(p *proc) {
		delete(v.Live, p.id)
		v.Finished[p.id] = true
		p.tm.End = v.Clock
		cfg.Policy.TxnFinished(p.id, v)
	}
	// gather steps the runnable attempts, in ascending id order, each to
	// its next request, where it parks, or to its end. A program error
	// fails the run.
	gather := func() error {
		for _, p := range runnable {
			if more, err := p.step(); err != nil {
				return fmt.Errorf("exec: T%d: %w", p.id, err)
			} else if more {
				park(p)
			} else {
				finish(p)
			}
		}
		runnable = runnable[:0]
		return nil
	}

	var undo []string // eraseAttempts' scratch: the items the erased attempts wrote
	// eraseAttempts erases the closure members' attempts per the
	// package's abort semantics: expunge their operations from the
	// schedule, undo their writes, drop their reads-from bookkeeping, and
	// notify the policy. The attempts themselves need no unwinding: each
	// is a suspended Machine, which a restart resets and a cancelled run
	// simply drops. It must only be called when every live transaction is
	// parked on a pending request. With byCancel set the policy is
	// notified through Canceler.TxnCanceled when implemented (the
	// transactions are gone, not retried); otherwise through
	// Restarter.TxnAborted.
	eraseAttempts := func(closure []int, byCancel bool) {
		// Nothing before the members' earliest operation moves: a victim
		// that started late rewrites a short suffix.
		from := len(ops)
		for _, id := range closure {
			p := v.proc(id)
			p.erasing = true
			if p.tm.Ops > 0 && p.first < from {
				from = p.first
			}
			i, _ := slices.BinarySearchFunc(parked, id, func(q *proc, id int) int { return q.id - id })
			unpark(i)
		}
		// Expunge the members' operations from the recorded schedule,
		// noting the items they wrote and renumbering what follows.
		undo = undo[:0]
		kept, keptBy := ops[:from], owners[:from]
		for i := from; i < len(ops); i++ {
			o, p := ops[i], owners[i]
			if p.erasing {
				metrics.WastedOps++
				p.tm.WastedOps++
				p.tm.Ops--
				if o.Action == txn.ActionWrite {
					undo = append(undo, o.Entity)
				}
				continue
			}
			if p.first == i {
				p.first = len(kept)
			}
			if mv != nil {
				lastPos[o.Txn] = len(kept)
			}
			o.Pos = len(kept)
			kept, keptBy = append(kept, o), append(keptBy, p)
		}
		ops, owners = kept, keptBy
		v.Ops = ops
		// Undo their store effects: each such item falls back to its
		// latest surviving write, or to the initial state.
		for _, item := range undo {
			i := len(ops) - 1
			for i >= 0 && (ops[i].Action != txn.ActionWrite || ops[i].Entity != item) {
				i--
			}
			if i >= 0 {
				v.Store.Set(item, ops[i].Value)
				v.LastWriter[item] = ops[i].Txn
				continue
			}
			if val, had := cfg.Initial.Get(item); had {
				v.Store.Set(item, val)
			} else {
				delete(v.Store, item)
			}
			v.LastWriter[item] = 0
		}
		// Drop the reads-from bookkeeping. A member's own readers are all
		// members too: the closure holds every live one and a finished
		// one would have pinned it.
		for _, id := range closure {
			p := v.proc(id)
			p.erasing = false
			if mv != nil {
				delete(lastPos, id)
			}
			for _, w := range p.readFrom {
				w.readers = slices.DeleteFunc(w.readers, func(r *proc) bool { return r == p })
			}
			p.readFrom, p.readers = p.readFrom[:0], p.readers[:0]
		}
		ra, _ := cfg.Policy.(Restarter)
		cc, _ := cfg.Policy.(Canceler)
		for _, id := range closure {
			metrics.Aborts++
			v.proc(id).tm.Aborts++
			switch {
			case byCancel && cc != nil:
				cc.TxnCanceled(id, v)
			case ra != nil:
				ra.TxnAborted(id, v)
			}
		}
	}

	// abortAndRestart erases the victim's attempt (and its cascade
	// closure) per the package's abort semantics and restarts the
	// programs. It must only be called at a stall, when every live
	// transaction is parked on a pending request.
	abortAndRestart := func(victim int) error {
		closure, ok := v.AbortClosure(victim)
		if !ok {
			return fmt.Errorf("victim T%d is pinned by a finished reader", victim)
		}
		eraseAttempts(closure, false)
		for _, id := range closure {
			p := v.proc(id)
			p.m.Reset()
			runnable = append(runnable, p)
			metrics.Restarts++
		}
		return nil
	}

	// cancelRun settles a cancelled run. It is called between
	// scheduling steps; transactions that complete while the remaining
	// parks are gathered commit normally (a program error still wins
	// and fails the run). Every erasable live transaction — one whose
	// abort closure holds — is erased like a policy victim but not
	// restarted; a pinned one (its written value was consumed by a
	// finished transaction) is retired as committed with its partial
	// prefix. The surviving schedule plus the served read-only results
	// form the partial Result returned with the typed error.
	cancelRun := func() (*Result, error) {
		if err := gather(); err != nil {
			return nil, err
		}
		// The erasable set is closed under cascade: every live reader of
		// an erasable transaction's write belongs to its closure, so the
		// union of the successful closures erases cleanly in one pass.
		var erasable []int
		for _, p := range parked {
			if slices.Contains(erasable, p.id) {
				continue
			}
			closure, _ := v.AbortClosure(p.id)
			for _, m := range closure {
				if !slices.Contains(erasable, m) {
					erasable = append(erasable, m)
				}
			}
		}
		sort.Ints(erasable)
		if len(erasable) > 0 {
			eraseAttempts(erasable, true)
			for _, id := range erasable {
				delete(v.Live, id)
				metrics.PerTxn[id].End = v.Clock
			}
		}
		// Force-retire the pinned remainder: finished transactions
		// already consumed their writes, so erasure is unsound and the
		// only consistent terminal state is committed-with-prefix.
		for len(parked) > 0 {
			finish(unpark(0))
		}
		cancelErr := CancelError(ctx)
		v.Ops = ops
		if mv != nil {
			ops = spliceRO(ops, roResults)
			metrics.MV = mv.VersionStats()
		}
		harvestReporters(cfg.Policy, &metrics)
		return &Result{
			Schedule: txn.AdoptSchedule(ops),
			Final:    v.Store,
			Metrics:  metrics,
		}, cancelErr
	}

	for len(v.Live) > 0 {
		// Cancellation is detected here, between scheduling steps: every
		// grant issued so far is complete and journaled, so settling now
		// never leaves a partial one.
		if ctx.Err() != nil {
			return cancelRun()
		}
		// Serve declared readers whose begin tick has arrived: they
		// snapshot the sealed committed prefix and complete without
		// entering the pending set or the policy.
		if err := serveDueROs(false); err != nil {
			return nil, err
		}
		// One request per live transaction before the policy picks.
		if err := gather(); err != nil {
			return nil, err
		}
		if len(v.Live) == 0 {
			break
		}
		if ctx.Err() != nil {
			return cancelRun()
		}

		v.Ops = ops
		passes := 0
		choice := cfg.Policy.Pick(list, v)
		for choice == PassTick {
			// Everything pending waits through a passed tick; unpark
			// counts it from the clock.
			v.Clock++
			metrics.Ticks++
			passes++
			if passes > maxConsecutivePasses {
				return nil, stallCause(cfg.Policy, fmt.Errorf("%w: policy passed %d consecutive ticks", ErrStall, passes))
			}
			if ctx.Err() != nil {
				return cancelRun()
			}
			choice = cfg.Policy.Pick(list, v)
		}
		if choice < 0 || choice >= len(list) {
			// A Restarter policy may resolve the stall by sacrificing a
			// victim; anything else (or an exhausted abort budget, the
			// livelock backstop) is a hard stall.
			if ra, isRestarter := cfg.Policy.(Restarter); isRestarter {
				if vi := ra.Victim(list, v); vi >= 0 && vi < len(list) {
					if metrics.Aborts >= maxAborts {
						return nil, stallCause(cfg.Policy, fmt.Errorf("%w: abort budget (%d) exhausted", ErrStall, maxAborts))
					}
					if err := abortAndRestart(list[vi].TxnID); err != nil {
						return nil, stallCause(cfg.Policy, fmt.Errorf("%w: %v", ErrStall, err))
					}
					continue
				}
			}
			return nil, stallCause(cfg.Policy, fmt.Errorf("%w: pending %v", ErrStall, list))
		}

		// Apply the granted operation and make its program runnable.
		p := unpark(choice)
		if p.tm.Start < 0 {
			p.tm.Start = v.Clock
		}
		if p.tm.Ops == 0 {
			p.first = len(ops)
		}
		p.tm.Ops++
		op := txn.Op{Txn: p.id, Action: p.req.Action, Entity: p.req.Entity, Pos: len(ops)}
		switch op.Action {
		case txn.ActionRead:
			val, ok := v.Store.Get(op.Entity)
			if !ok {
				return nil, fmt.Errorf("exec: data item %q has no value", op.Entity)
			}
			// Record reads-from so aborts can cascade to transactions
			// that consumed a victim's written value.
			if w := v.LastWriter[op.Entity]; w != 0 && w != p.id {
				if wp := v.proc(w); !slices.Contains(p.readFrom, wp) {
					p.readFrom = append(p.readFrom, wp)
					wp.readers = append(wp.readers, p)
				}
			}
			op.Value = val
			p.m.Deliver(val, nil)
		case txn.ActionWrite:
			v.Store.Set(op.Entity, p.req.Value)
			v.LastWriter[op.Entity] = p.id
			op.Value = p.req.Value
		}
		if mv != nil {
			lastPos[op.Txn] = len(ops)
		}
		ops, owners = append(ops, op), append(owners, p)
		v.Clock++
		metrics.Ticks++
		runnable = append(runnable, p)
	}

	// Readers whose begin tick lies beyond the run snapshot the full
	// final prefix (every writer has finished, so the seal reaches the
	// end of the schedule).
	if err := serveDueROs(true); err != nil {
		return nil, err
	}
	if mv != nil {
		ops = spliceRO(ops, roResults)
		metrics.MV = mv.VersionStats()
	}

	harvestReporters(cfg.Policy, &metrics)
	return &Result{
		Schedule: txn.AdoptSchedule(ops),
		Final:    v.Store,
		Metrics:  metrics,
	}, nil
}

// harvestReporters copies the optional reporter extensions' counters
// from a policy or batch gate into m. The reporter interfaces embed
// Policy, so only certifying policies match; a nil or plain value
// leaves m untouched.
func harvestReporters(p any, m *Metrics) {
	if sr, ok := p.(ShardReporter); ok {
		m.Shards = sr.ShardStats()
	}
	if cr, ok := p.(CompactionReporter); ok {
		st := cr.CompactionStats()
		m.Compactions = st.Compactions
		m.ReclaimedTxns = st.ReclaimedTxns
		m.ReclaimedOps = st.ReclaimedOps
		m.LiveTxns = st.LiveTxns
	}
	if pr, ok := p.(ProbeReporter); ok {
		st := pr.ProbeStats()
		m.ProbeHits = st.Hits
		m.ProbeMisses = st.Misses
		m.ProbeInvalidations = st.Invalidations
	}
	if lr, ok := p.(LogReporter); ok {
		m.Log = lr.LogStats()
	}
	if hr, ok := p.(HealthReporter); ok {
		m.Health = hr.Health()
	}
}

// PolicyCloner is an optional Policy extension: a policy that can
// produce an independent instance equivalent to a freshly constructed
// one — the decision-relevant configuration (seeds, partitions, inner
// policies, tuning knobs) is carried over, accumulated run state is
// reset, and nothing mutable is shared with the original. ClonePolicy
// returns nil when this particular value cannot be cloned (say, a
// wrapper whose inner policy is not cloneable, or a gate resumed over
// an external certifier); RunMany then falls back to aliasing
// detection. The sched policies and certification gates implement it.
type PolicyCloner interface {
	Policy
	// ClonePolicy returns the fresh equivalent instance, or nil.
	ClonePolicy() Policy
}

// TryClonePolicy clones p when it implements PolicyCloner and the
// clone succeeds.
func TryClonePolicy(p Policy) (Policy, bool) {
	pc, ok := p.(PolicyCloner)
	if !ok {
		return nil, false
	}
	c := pc.ClonePolicy()
	if c == nil {
		return nil, false
	}
	return c, true
}

// ErrSharedPolicy reports that one non-cloneable Policy value was
// handed to more than one Config of a RunMany call. Policies are
// stateful; sharing one across concurrent runs silently corrupts every
// decision stream involved, so the aliased runs are rejected instead
// of executed.
var ErrSharedPolicy = errors.New("exec: Policy instance shared across Configs")

// RunMany executes independently configured runs concurrently, at most
// workers at a time (workers ≤ 0 selects GOMAXPROCS). Policies are
// stateful and runs must not share them, so RunMany enforces the rule
// instead of trusting callers: a policy implementing PolicyCloner is
// cloned per run (the caller's instance is left untouched, so the same
// cfgs slice can be passed to RunMany again), and a non-cloneable
// policy value appearing in more than one Config fails those runs with
// ErrSharedPolicy rather than corrupting their decision streams. The
// configs must still not share other mutable state (give each run its
// own Initial; Run clones it, but a DB handed to two configs is still
// read concurrently). Results and errors are indexed like cfgs. This
// is the engine entry point for driving many admission streams at
// once: a fleet of workloads saturating a sharded certifier scales
// with cores because each run's policy probes only its own monitor
// shards.
func RunMany(cfgs []Config, workers int) ([]*Result, []error) {
	return RunManyCtx(context.Background(), cfgs, workers)
}

// RunManyCtx is RunMany with cancellation: ctx is threaded into every
// run (each settles per RunCtx when it ends), and runs that have not
// yet started when ctx ends are skipped with a typed
// ErrCanceled/ErrDeadline error instead of being launched.
func RunManyCtx(ctx context.Context, cfgs []Config, workers int) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	run := make([]Config, len(cfgs))
	seen := make(map[Policy]int, len(cfgs))
	for i := range cfgs {
		run[i] = cfgs[i]
		p := cfgs[i].Policy
		if p == nil {
			continue
		}
		if clone, ok := TryClonePolicy(p); ok {
			run[i].Policy = clone
			continue
		}
		// Uncomparable policy values (rare: policies are normally
		// pointers) cannot be aliasing-checked; they pass through on the
		// caller's honor as before.
		if !reflect.TypeOf(p).Comparable() {
			continue
		}
		if j, dup := seen[p]; dup {
			if errs[j] == nil {
				errs[j] = fmt.Errorf("%w: %T handed to Configs %d and %d", ErrSharedPolicy, p, j, i)
			}
			errs[i] = fmt.Errorf("%w: %T handed to Configs %d and %d", ErrSharedPolicy, p, j, i)
			continue
		}
		seen[p] = i
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range run {
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := CancelError(ctx); err != nil {
				errs[i] = err // not started; nothing to settle
				return
			}
			results[i], errs[i] = RunCtx(ctx, run[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}
