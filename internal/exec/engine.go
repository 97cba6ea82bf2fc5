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
// # Policies and gates
//
// A Policy picks the interleaving. An engine asserts one more contract
// once, when it starts: Gate (the certification gate of package sched),
// which also resolves stalls by naming victims.
//
// # Abort and restart semantics
//
// A Gate can resolve a stall by sacrificing a victim instead of killing
// the run. Because writes are granted operations — applied to the
// shared store the moment the policy grants them, not buffered to
// commit time — aborting a transaction means erasing an attempt that
// has already touched shared state. The engine makes the erasure exact:
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
//
// # What a batch allocates
//
// ParallelEngine allocates per batch only what the Result it returns
// owns: the schedule, Final and the metrics. Everything else lives
// with the engine and is emptied when a batch starts: each pool worker
// runs every program on one program.Machine, whose slot array outlives
// the run, and records operations and read stamps in arenas; the
// engine keeps its id lists, attempt slab, committed-operation buffer
// and reader results. A Result never points into any of them — the
// schedule is always a fresh array, even with no reader to splice in —
// so a later batch cannot change an earlier Result. Batch admission
// has no denial outcome: a fresh transaction admitted whole cannot
// close a cycle (core.Monitor.AdmitSequence), so BatchGate.AdmitTxn
// fails only on gate state the batch stops on.
//
// # What a round allocates
//
// RunCtx allocates per round only what the Result it returns owns: the
// schedule, copied out of the run's arena at its exact length, Final
// (the clone of Initial the run updates in place) and the metrics slab
// and map — and the round's View, fresh every run because a policy tells
// runs apart by the View's identity. Everything else comes from one
// package-level pool of run states (runState): the per-transaction slab,
// each Machine keeping its slot array; the schedule arena and its
// owners; the id, runnable, parked and pending lists; the erasure
// scratch; and the View's Live, Finished and LastWriter maps. A run
// resets everything it takes before using it and relies on nothing
// having been cleaned up after the run before, so a state a panicking
// program abandoned is as good as any. A Result never points into a run
// state, so a later round cannot change an earlier Result. Declared
// read-only transactions still build their multiversion store per run.
package exec

import (
	"context"
	"errors"
	"fmt"
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
	TxnID int
	// Slot is the attempt's index in the run's id-ascending slab, fixed
	// across its requests and restarts: a cache index, nothing more.
	Slot   int
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
	writes := p.WriteTargets()
	return AccessDecl{Reads: all.Diff(writes), Writes: writes}
}

// View is the engine state a policy may consult when picking. A View,
// and everything reachable from it — Ops, the maps, the slices
// AbortClosure returns — is valid only during the run's policy
// callbacks: the engine recycles that memory for later runs. Every run
// gets a View of its own, so a policy may keep the pointer to tell runs
// apart, but must not read through it once the run has returned.
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
	// programs are what AccessOf derives declarations from
	// (Config.Programs); access caches its answers.
	programs map[int]*program.Program
	access   map[int]AccessDecl
}

// proc returns the run state of transaction id (at id − procs[0].id when
// the ids are contiguous), or nil for an id the tick loop does not run.
func (v *View) proc(id int) *proc {
	if len(v.procs) > 0 {
		if i := id - v.procs[0].id; i >= 0 && i < len(v.procs) && v.procs[i].id == id {
			return &v.procs[i]
		}
	}
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

// AccessOf returns transaction id's declared access set: the
// declaration DeclareAccess derives from the program, computed on first
// use — only conservative locking policies ask.
func (v *View) AccessOf(id int) AccessDecl {
	if a, ok := v.access[id]; ok {
		return a
	}
	var a AccessDecl
	if p := v.programs[id]; p != nil {
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
	p := v.proc(id)
	if p == nil || !p.live {
		return nil, false
	}
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

// CompactStats is a certifying policy's transaction-lifecycle
// counters, as reported by a policy whose certifier commits finished
// transactions and compacts them away (the sched certification gate
// over core.Monitor).
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

// GateStats is one snapshot of a certifying gate's counters: the
// certifier's lifecycle counters, the journal's counters, and the
// gate's health.
type GateStats struct {
	Compact CompactStats
	Log     LogStats
	Health  Health
}

// Gate is a certifying policy's whole contract with the engines; the
// sched certification gate implements it. RunCtx and NewParallelEngine
// assert it once, when they start, and look for no other interface.
//
//   - Victim resolves a stall: when every pending request is
//     ungrantable (Pick returned -1), RunCtx asks for the index (into
//     pending) of the transaction to abort and restart instead of
//     failing with ErrStall. The victim and its cascade closure (see
//     View.AbortClosure, which it must report eligible) are aborted per
//     the package's abort semantics and respawned, and the run
//     continues. -1 declines: the run fails with ErrStall.
//   - TxnAborted: a transaction's attempt was erased — called once per
//     closure member, after its operations were expunged and its store
//     effects undone, before its program respawns. The gate retracts
//     the attempt from its certifier here.
//   - TxnCanceled: cancel equals abort. The gate retracts, journaled,
//     every grant it holds for a transaction the engine erased without
//     a restart — the run was cancelled, or failed on a program error —
//     leaving the state a completed run that aborted it would leave.
//   - Drain stops new admissions, settles the in-flight transactions
//     per the drain policy, flushes the journal, compacts and cuts a
//     snapshot. It returns nil when complete, or an ErrCanceled- or
//     ErrDeadline-wrapped error naming the remainder when ctx ends first.
//   - CompactWatermark is the highest transaction id compaction has
//     reclaimed (0 before any); ParallelEngine anchors its store's
//     version GC to it (VersionedStore.SetRetainFloor).
//   - Settle is called once at every exit of a run that started
//     (RunCtx's epilogue, each ParallelEngine batch), after the run's
//     last TxnFinished or TxnCanceled, and returns once every commit the
//     run reports is durable. Its error fails a run that had a Result to
//     return; a gate without a journal returns nil.
//   - Stats snapshots the counters the engines store in Metrics.Gate,
//     after Settle; the tick engine reads its Health to attribute a
//     stall to a journal outage or to the gate's posture.
type Gate interface {
	Policy
	BatchGate
	Victim(pending []*Request, v *View) int
	TxnAborted(id int, v *View)
	TxnCanceled(id int, v *View)
	Drain(ctx context.Context) error
	CompactWatermark() int
	Settle() error
	Stats() GateStats
}

// Subsets of Gate that no engine asserts, kept for
// benchmark/benchmark_test.go:138–151 until ROADMAP item 8.
type (
	Restarter interface {
		Victim(pending []*Request, v *View) int
		TxnAborted(id int, v *View)
	}
	Canceler          interface{ TxnCanceled(id int, v *View) }
	Drainer           interface{ Drain(context.Context) error }
	WatermarkReporter interface{ CompactWatermark() int }
)

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
	// Gate is the policy's (or batch gate's) Stats snapshot taken at
	// the end of the run when it is a Gate; zero otherwise.
	// Gate.Compact.LiveTxns is the certifier's residual population — for
	// a policy reused across sequential runs it measures what the
	// stream's history still costs, the number the compactor keeps
	// bounded.
	Gate GateStats
	// Retries counts program re-executions in a ParallelEngine batch:
	// speculative retries after failed version validations plus the
	// at-most-one authoritative re-execution at each commit turn.
	// Always zero under RunCtx.
	Retries int
	// Conflicts counts failed version validations in a ParallelEngine
	// batch — each one is a conflicting commit the optimistic check
	// caught. Always zero under RunCtx.
	Conflicts int
	// ROTxns counts declared read-only transactions served from
	// multiversion snapshots (never denied, never aborted); ROOps
	// counts the snapshot reads they performed. Snapshot reads do not
	// consume clock ticks: Ticks keeps counting read-write grants (and
	// passed ticks under RunCtx) only.
	ROTxns int
	ROOps  int
	// MV is the multiversion store's retention accounting at the end
	// of the run, populated by the engines that run one (ParallelEngine
	// always, RunCtx when read-only transactions are declared).
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
	// MaxAborts bounds the total aborted attempts of a run before the
	// engine gives up with ErrStall (a livelock backstop for a Gate
	// that names victims); 0 means the default of 65536.
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
	id   int
	slot int // the index in the run's proc slab, every request's Slot
	m    program.Machine
	tm   *TxnMetrics
	req  Request

	// parkedAt is the clock at which req parked: the transaction has
	// waited Clock − parkedAt ticks when req leaves the pending list.
	parkedAt int
	// first is the schedule position of the attempt's first surviving
	// operation while tm.Ops > 0; erasing marks the abort closure's
	// members during an erasure.
	first   int
	erasing bool
	live    bool // whether Live holds id, read without hashing
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
	p.req = Request{TxnID: p.id, Slot: p.slot, Action: r.Action, Entity: r.Item, Value: r.Value}
	return true, nil
}

// runState is what a tick run builds and its Result does not own (see
// the package comment on what a round allocates): the per-transaction
// slab, the schedule arena with each operation's owner, the id,
// runnable, parked and pending lists, eraseAttempts' undo scratch, and
// the maps behind the View. RunCtx takes one from runStates for the
// length of a run.
type runState struct {
	ids              []int
	procs            []proc
	runnable, parked []*proc
	list             []*Request
	ops              []txn.Op
	owners           []*proc
	undo             []string
	live, finished   map[int]bool
	lastWriter       map[string]int
}

// runStates recycles run states across RunCtx calls, whether made one
// after another, as the benchmark's rounds are, or concurrently from
// the caller's own goroutines.
var runStates = sync.Pool{New: func() any { return new(runState) }}

// RunCtx executes the configured programs concurrently and returns the
// recorded schedule, final state, and metrics. It is one loop
// on the calling goroutine (see the package comment on the transport):
// it steps the runnable attempts in ascending id order until each parks
// on a request or finishes, asks the policy to pick among the parked
// requests, applies the granted operation and makes its program
// runnable. It starts no goroutine.
//
// Concurrent RunCtx calls are safe when each has its own Policy and
// shares no other mutable state: a policy is stateful, so one value
// handed to two concurrent runs corrupts both decision streams, and a
// DB handed to two configs is read concurrently (RunCtx clones
// Initial, so the runs never write to it). A caller wanting several
// runs at once starts its own goroutines, one policy per run.
//
// When ctx ends mid-run the engine settles instead of killing the run:
// transactions in flight are aborted through the same erasure machinery
// a policy victim uses — their attempts are expunged from the schedule,
// their writes undone, and a Gate notified through TxnCanceled, so a
// certifying gate retracts and journals each one exactly as a completed
// run that aborted them would. The rare transaction whose written value
// a finished transaction already consumed cannot be erased (see the
// package comment on pinning; the cascadeless gate never produces one)
// and is retired as committed with its partial prefix instead.
//
// RunCtx then returns the partial Result — the committed schedule that
// survives, replayable against Initial — alongside a typed
// ErrCanceled- or ErrDeadline-wrapped error. Declared read-only
// transactions not yet served at the cancellation point are skipped.
// Cancellation is detected between scheduling steps, so exactly the
// grants journaled before the detection point are kept: never a
// partial one. A run that fails — on a program error, a stall or a
// journal outage — returns no Result, but settles a Gate the same way:
// TxnCanceled for every transaction still live. Every exit then calls
// the Gate's Settle, so the commits a returned Result reports are
// durable; a Settle error replaces the Result.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	rs := runStates.Get().(*runState)
	defer runStates.Put(rs)
	return rs.run(ctx, cfg)
}

// run is RunCtx on the run state rs, which it resets before use.
func (rs *runState) run(ctx context.Context, cfg Config) (*Result, error) {
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
	// The contract a policy may add, asserted once (see Gate).
	gate, _ := cfg.Policy.(Gate)

	roList := make([]int, 0, len(cfg.ReadOnly))
	for id, on := range cfg.ReadOnly {
		if on {
			roList = append(roList, id)
		}
	}
	if err := checkReaders(roList, cfg.Programs); err != nil {
		return nil, err
	}
	ids := rs.ids[:0]
	for id := range cfg.Programs {
		if cfg.ReadOnly[id] {
			continue // served from snapshots, never ticked
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rs.ids = ids

	// Per-transaction state lives in slabs indexed by a dense slot —
	// tick transactions in ascending id order, then the readers — so
	// the grant path follows pointers instead of hashing ids; the
	// exported maps are filled once, here. The metrics slab is the
	// Result's; the proc slab and everything else below comes from rs
	// and is reset before use, whatever the run before left in it.
	rs.procs = slices.Grow(rs.procs[:0], len(ids))[:len(ids)]
	procs := rs.procs
	tms := make([]TxnMetrics, len(ids)+len(roList))
	metrics := Metrics{PerTxn: make(map[int]*TxnMetrics, len(tms))}
	if rs.live == nil {
		rs.live, rs.finished, rs.lastWriter = make(map[int]bool), make(map[int]bool), make(map[string]int)
	}
	clear(rs.live)
	clear(rs.finished)
	clear(rs.lastWriter)
	v := &View{
		Store:      cfg.Initial.Clone(),
		Live:       rs.live,
		Finished:   rs.finished,
		LastWriter: rs.lastWriter,
		DataSets:   cfg.DataSets,
		procs:      procs,
		programs:   cfg.Programs,
	}
	// runnable are the attempts to resume at the next gather, ascending
	// by id: every program at first, then the one just granted or the
	// closure just restarted. parked are the attempts waiting on a
	// request, ascending by id, and list their requests — the pending
	// view handed to the policy, valid only during the call.
	runnable, parked, list := rs.runnable[:0], rs.parked[:0], rs.list[:0]
	for i := range tms {
		tms[i].Start = -1
	}
	for i, id := range ids {
		metrics.PerTxn[id] = &tms[i]
		p := &procs[i]
		p.id, p.slot, p.tm, p.parkedAt, p.first, p.erasing, p.live = id, i, &tms[i], 0, 0, false, true
		p.readFrom, p.readers = p.readFrom[:0], p.readers[:0]
		p.m.Init(interp, cfg.Programs[id])
		v.Live[id] = true
		runnable = append(runnable, p)
	}
	for i, id := range roList {
		metrics.PerTxn[id] = &tms[len(ids)+i]
	}
	// ops is the schedule arena, copied out into the Result; owners[i]
	// is the attempt ops[i] was granted to.
	ops, owners := rs.ops[:0], rs.owners[:0]
	undo := rs.undo[:0] // eraseAttempts' scratch: the items the erased attempts wrote
	// The lists grow inside the run; whatever they grew to is kept.
	defer func() {
		rs.runnable, rs.parked, rs.list = runnable, parked, list
		rs.ops, rs.owners, rs.undo = ops, owners, undo
	}()

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
	// operation bounds every seal. ro serves every reader over mv, each
	// run on roM.
	var mv *VersionedStore
	var ro *snapshotAccessor
	var roM *program.Machine
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
		ro, roM = &snapshotAccessor{store: mv}, new(program.Machine)
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
		mv.commit(ops[mvQ:cut])
		mvQ = cut
	}

	// serveRO runs one declared reader to completion against a pinned
	// snapshot of the sealed prefix. A program error is authoritative:
	// the snapshot is a consistent committed state.
	serveRO := func(id int) error {
		advanceMV()
		stamp := mv.pin()
		rops, err := ro.read(roM, interp, id, stamp, cfg.Programs[id])
		mv.unpin(stamp)
		if err != nil {
			return fmt.Errorf("exec: T%d: %w", id, err)
		}
		roResults = append(roResults, roResult{id: id, anchor: mvQ, order: len(roResults), ops: rops})
		tm := metrics.PerTxn[id]
		tm.Start, tm.End, tm.Ops = v.Clock, v.Clock, len(rops)
		metrics.ROTxns++
		metrics.ROOps += len(rops)
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
		v.Finished[p.id], p.live = true, false
		p.tm.End = v.Clock
		cfg.Policy.TxnFinished(p.id, v)
	}
	// exit is the run's one epilogue, which every return after the run
	// started goes through. A failed run (program error, stall, journal
	// outage) first settles a Gate's live attempts as a cancelled run
	// does — TxnCanceled in slab order, ascending id — so nothing of it
	// stays in the certifier or its journal. Settle then makes the
	// reported commits durable before the gate's counters are harvested;
	// a Settle failure drops the Result.
	exit := func(res *Result, err error) (*Result, error) {
		if gate == nil {
			return res, err
		}
		for i := range procs {
			if procs[i].live {
				gate.TxnCanceled(procs[i].id, v)
			}
		}
		if serr := gate.Settle(); serr != nil && res != nil {
			res, err = nil, errors.Join(err, serr)
		}
		if res != nil {
			res.Metrics.Gate = gate.Stats()
		}
		return res, err
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

	// eraseAttempts erases the closure members' attempts per the
	// package's abort semantics: expunge their operations from the
	// schedule, undo their writes, drop their reads-from bookkeeping, and
	// notify the policy. The attempts themselves need no unwinding: each
	// is a suspended Machine, which a restart resets and a cancelled run
	// simply drops. It must only be called when every live transaction is
	// parked on a pending request. A Gate is notified through TxnCanceled
	// with byCancel set (the transactions are gone, not retried), through
	// TxnAborted otherwise.
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
		for _, id := range closure {
			metrics.Aborts++
			v.proc(id).tm.Aborts++
			switch {
			case gate == nil:
			case byCancel:
				gate.TxnCanceled(id, v)
			default:
				gate.TxnAborted(id, v)
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

	// result hands the recorded schedule to a Result as a fresh array —
	// spliced with the served readers' operations when there are any,
	// copied out of the arena otherwise; exit adds the gate's counters.
	result := func() *Result {
		var schedule []txn.Op
		if mv != nil {
			schedule = spliceRO(ops, roResults)
			metrics.MV = mv.VersionStats()
		} else {
			schedule = make([]txn.Op, len(ops))
			copy(schedule, ops)
		}
		return &Result{
			Schedule: txn.AdoptSchedule(schedule),
			Final:    v.Store,
			Metrics:  metrics,
		}
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
				v.proc(id).live = false
				metrics.PerTxn[id].End = v.Clock
			}
		}
		// Force-retire the pinned remainder: finished transactions
		// already consumed their writes, so erasure is unsound and the
		// only consistent terminal state is committed-with-prefix.
		for len(parked) > 0 {
			finish(unpark(0))
		}
		return result(), CancelError(ctx)
	}

	for len(v.Live) > 0 {
		// Cancellation is detected here, between scheduling steps: every
		// grant issued so far is complete and journaled, so settling now
		// never leaves a partial one.
		if ctx.Err() != nil {
			return exit(cancelRun())
		}
		// Serve declared readers whose begin tick has arrived: they
		// snapshot the sealed committed prefix and complete without
		// entering the pending set or the policy.
		if err := serveDueROs(false); err != nil {
			return exit(nil, err)
		}
		// One request per live transaction before the policy picks.
		if err := gather(); err != nil {
			return exit(nil, err)
		}
		if len(v.Live) == 0 {
			break
		}
		if ctx.Err() != nil {
			return exit(cancelRun())
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
				return exit(nil, stallCause(gate, fmt.Errorf("%w: policy passed %d consecutive ticks", ErrStall, passes)))
			}
			if ctx.Err() != nil {
				return exit(cancelRun())
			}
			choice = cfg.Policy.Pick(list, v)
		}
		if choice < 0 || choice >= len(list) {
			// A Gate may resolve the stall by sacrificing a victim;
			// anything else (or an exhausted abort budget, the livelock
			// backstop) is a hard stall.
			if gate != nil {
				if vi := gate.Victim(list, v); vi >= 0 && vi < len(list) {
					if metrics.Aborts >= maxAborts {
						return exit(nil, stallCause(gate, fmt.Errorf("%w: abort budget (%d) exhausted", ErrStall, maxAborts)))
					}
					if err := abortAndRestart(list[vi].TxnID); err != nil {
						return exit(nil, stallCause(gate, fmt.Errorf("%w: %v", ErrStall, err)))
					}
					continue
				}
			}
			return exit(nil, stallCause(gate, fmt.Errorf("%w: pending %v", ErrStall, list)))
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
				return exit(nil, fmt.Errorf("exec: data item %q has no value", op.Entity))
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
		return exit(nil, err)
	}
	return exit(result(), nil)
}
