package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pwsr/internal/fault"
	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// BatchGate is the admission interface the block-parallel batch
// executor drives: one call certifies and commits a finished
// transaction's whole operation sequence atomically. The sched gates
// implement it (Certify and OptimisticCertify, over core.Monitor), so
// a batch admitted through a gate carries the
// same PWSR proof obligation as a ticked schedule.
// A fresh transaction admitted whole cannot be denied (see
// core.Monitor.AdmitSequence), so there is no denial outcome.
type BatchGate interface {
	// AdmitTxn certifies one transaction's complete, position-stamped
	// operation sequence and commits the transaction. A nil error means
	// the sequence is certified, durable (if a journal is attached),
	// and committed. An error is gate state the batch stops on: a
	// closed or draining gate, a certifier violation, or a journal
	// fail-stop. AdmitTxn takes no context: the engine checks its own
	// before every commit turn, so a cancelled batch never calls it.
	AdmitTxn(ops []txn.Op) error
}

// ParallelConfig configures a ParallelEngine.
type ParallelConfig struct {
	// Initial is the starting database state (copied).
	Initial state.DB
	// Gate admits every transaction before its writes reach the store.
	// The engine submits whole transactions in commit order, so the
	// certified schedule is conflict-equivalent to that serial order —
	// PWSR by construction. The gate must be owned by this engine: its
	// transaction ids must be fresh on the gate's certifier. A nil Gate
	// skips certification (useful for pure throughput measurement).
	Gate BatchGate
	// Workers is the worker-pool size; ≤ 0 selects GOMAXPROCS.
	Workers int
	// MaxRetries bounds the speculative re-executions of one
	// transaction after failed version validations, before its commit
	// turn. 0 selects the default of 2; negative disables speculative
	// retries. The bound never threatens liveness: a transaction whose
	// budget is exhausted (or whose validation fails at its turn) is
	// re-executed once more at its commit turn while the store is
	// frozen, where it cannot conflict.
	MaxRetries int
	// Interp configures program execution; nil means NewInterp().
	Interp *program.Interp
	// ReadOnly declares transactions served from pinned multiversion
	// snapshots instead of the speculate/validate/commit pipeline: a
	// declared transaction acquires a snapshot of the committed prefix
	// at begin, reads it without validation, never enters the Gate,
	// and can neither be denied nor aborted (a batch whose declared
	// program writes a shared item is rejected with ErrReadOnlyWrite
	// before anything runs). Its operations are spliced into the
	// result schedule at the snapshot's committed-prefix offset — see
	// mvread.go for why the combined schedule stays PWSR.
	ReadOnly map[int]bool
}

// ParallelEngine is the block-parallel batch executor: a worker pool
// runs independent programs speculatively against a shared
// VersionedStore, and a serialized commit step validates each
// transaction's read stamps in ascending transaction-id order,
// re-executing stale attempts before admitting the final operation
// sequence through the gate and applying the writes.
//
// The commit pipeline makes the execution deterministic: every
// committed transaction observed exactly the store produced by the
// transactions before it in id order, so the schedule, final state,
// and certifier verdict are identical to a serial run of the same
// programs — the property TestParallelEngineDifferential pins.
// Speculation only moves work off the critical path; Metrics.Retries
// and Metrics.Conflicts report how much of it was wasted.
//
// An engine is safe for sequential reuse: successive ExecuteBatchCtx
// calls run against the store state the previous batch left behind
// (batch transaction ids must remain unique across the engine's
// lifetime when a gate is attached, and globally ascending when the
// gate is a Gate, whose Compact watermark anchors retention —
// ExecuteBatchCtx enforces the latter).
type ParallelEngine struct {
	store      *VersionedStore
	gate       BatchGate
	maxRetries int
	interp     *program.Interp
	readOnly   map[int]bool

	// full is cfg.Gate when it is a whole Gate, nil otherwise. With one
	// the store runs with a manual retention floor anchored at the
	// certifier's Compact watermark: wmQueue records (txn, stamp) pairs
	// in commit order, and the floor advances to the stamp of the last
	// commit at or below the reported watermark — version GC and
	// certifier GC follow the same low-watermark argument.
	full    Gate
	wmQueue []txnStamp
	// wmMaxID is the highest read-write transaction id any prior batch
	// submitted (valid when wmIDSeen). wmQueue persists across batches
	// and drains by comparing raw ids against the gate's
	// CompactWatermark, so the retention floor is only correct when ids
	// ascend globally across an engine's batches — ExecuteBatchCtx rejects
	// a batch that reuses or reorders ids below this high-water mark.
	wmMaxID  int
	wmIDSeen bool

	// batchMu serializes ExecuteBatchCtx calls; the worker pool and commit
	// pipeline inside one batch have their own synchronization.
	batchMu sync.Mutex

	// inj, when set, is consulted once per commit turn (fault.OpCommit
	// at injSite): injected latency stalls the commit pipeline, an
	// injected error discards the deposited speculative attempt and
	// forces the authoritative re-execution — a lost-work fault, never a
	// verdict change (the re-execution observes the exact committed
	// prefix, like any failed validation).
	inj     *fault.Injector
	injSite string

	// pool holds what each of the pool's worker goroutines runs
	// programs through (see worker); its length is the pool's size.
	pool []worker
	// What a batch needs and its Result does not own is kept from one
	// batch to the next, emptied when a batch starts: the sorted
	// read-write and reader ids, the attempt slab, the committed
	// operations in commit order, and the readers' results.
	ids      []int
	roList   []int
	attempts []attempt
	ops      []txn.Op
	ro       []roResult
}

// SetFaultInjector registers the deterministic fault injector the
// engine consults at each commit turn (site tags the injection point,
// e.g. "engine"). Call before ExecuteBatchCtx; nil detaches.
func (e *ParallelEngine) SetFaultInjector(inj *fault.Injector, site string) {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	e.inj = inj
	e.injSite = site
}

// NewParallelEngine builds an engine over a fresh store initialized
// from cfg.Initial.
func NewParallelEngine(cfg ParallelConfig) *ParallelEngine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	retries := cfg.MaxRetries
	switch {
	case retries == 0:
		retries = 2
	case retries < 0:
		retries = 0
	}
	in := cfg.Interp
	if in == nil {
		in = program.NewInterp()
	}
	e := &ParallelEngine{
		store:      NewVersionedStore(cfg.Initial),
		gate:       cfg.Gate,
		maxRetries: retries,
		interp:     in,
		pool:       make([]worker, workers),
	}
	for k := range e.pool {
		e.pool[k].rw.store = e.store
		e.pool[k].ro.store = e.store
	}
	if len(cfg.ReadOnly) > 0 {
		e.readOnly = make(map[int]bool, len(cfg.ReadOnly))
		for id, on := range cfg.ReadOnly {
			if on {
				e.readOnly[id] = true
			}
		}
	}
	if g, ok := cfg.Gate.(Gate); ok {
		e.full = g
		// Anchor retention at the certifier's Compact watermark from
		// the start: the floor begins at 0 (everything retained) and
		// advances only as the certifier reclaims.
		e.store.SetRetainFloor(0)
	}
	return e
}

// txnStamp pairs a committed transaction with the store stamp its
// commit produced, for Compact-watermark floor advancement.
type txnStamp struct {
	txn   int
	stamp uint64
}

// Store exposes the engine's versioned store for inspection.
func (e *ParallelEngine) Store() *VersionedStore { return e.store }

// RunParallelCtx executes one batch of programs on a fresh engine — the
// batch-mode counterpart of RunCtx.
func RunParallelCtx(ctx context.Context, cfg ParallelConfig, programs map[int]*program.Program) (*Result, error) {
	return NewParallelEngine(cfg).ExecuteBatchCtx(ctx, programs)
}

// attempt is a transaction's latest execution in a batch: the operations
// it would contribute to the schedule — its writes among them, which is
// all the commit step applies — the stamp each read saw (vers[k] for a
// read ops[k]: the validation set), and how it ended. ops and vers are
// ranges of the executing worker's arenas. Until ready is set the
// attempt belongs to the worker executing it, from then on to whichever
// worker holds the commit lock.
type attempt struct {
	ops   []txn.Op
	vers  []uint64
	err   error
	ready atomic.Bool
}

// worker is what one goroutine of a batch's pool runs programs through:
// m, the interpreter state every run reuses, and the accessors it runs
// against — rw for read-write attempts, ro for declared readers. Each
// accessor keeps its operations in an arena it appends to, every run
// taking its range (see snapshotAccessor.read): an arena that outgrows
// its array moves, and the ranges already taken stay where they were,
// unchanged, so a deposited attempt is readable by the commit step
// while its worker goes on. The arenas live as long as the engine and
// are emptied when a batch starts; nothing a batch returns points into
// them (committed operations are copied into the schedule), so a batch
// allocates no operation storage per transaction and no interpreter
// state per run.
type worker struct {
	m  program.Machine
	rw versionedAccessor
	ro snapshotAccessor
}

// reset empties the arenas for a new batch.
func (w *worker) reset() {
	clear(w.rw.ops)
	clear(w.ro.ops)
	w.rw.ops, w.rw.vers, w.ro.ops = w.rw.ops[:0], w.rw.vers[:0], w.ro.ops[:0]
}

// batchState is the commit pipeline's shared state, guarded by mu
// except for the atomics.
type batchState struct {
	mu   sync.Mutex
	next int // index into ids of the next transaction to commit
	ops  []txn.Op
	// tms holds every transaction's metrics, indexed like the tasks
	// (ids, then the readers); perTxn points into it.
	tms    []TxnMetrics
	perTxn map[int]*TxnMetrics
	err    error
	failed atomic.Bool // lock-free mirror of err != nil for worker bail-out

	// claim hands out task indices; retries and conflicts count the
	// speculation cost (Metrics.Retries, Metrics.Conflicts).
	claim, retries, conflicts atomic.Int64

	// Read-only bypass state: completed reader results awaiting the
	// end-of-batch splice, and the begin-order counter that breaks
	// anchor ties.
	ro    []roResult
	roSeq int
}

// fail records the batch's first error under bs.mu.
func (bs *batchState) fail(err error) {
	if bs.err == nil {
		bs.err = err
		bs.failed.Store(true)
	}
}

// ExecuteBatchCtx runs one batch of independent programs to completion
// and returns the combined result: the schedule in ascending
// transaction-id (= commit) order, the final store state, and metrics
// (Ticks counts committed read-write operations as in RunCtx;
// Retries/Conflicts count the speculation cost; the gate's Stats are
// harvested as in RunCtx, after the gate's Settle has made the batch's
// commits durable; a Settle error replaces the Result). On a program
// error or fatal gate
// error the batch stops: the error is returned, transactions already
// committed stay committed in the store and on the gate, and the rest
// of the batch is discarded.
//
// Transactions declared read-only (ParallelConfig.ReadOnly) skip the
// pipeline: each acquires a pinned snapshot — atomically with the
// commit step, so the snapshot is exactly a committed prefix — reads
// it without validation or gate admission, and its operations are
// spliced into the result schedule at that prefix's offset. Readers
// are never denied and never abort; Metrics.ROTxns/ROOps count them.
// Their placement depends on when workers reach them, so with
// declared readers the schedule's reader positions (never the
// read-write sub-schedule, its state, or its verdict) may vary across
// runs and worker counts.
//
// When ctx ends mid-batch the commit pipeline stops cold: the commit
// turn checks the context before every gate admission and store apply,
// so a transaction is either fully admitted-and-committed or untouched —
// never partially granted. Speculative attempts deposited but not yet
// at the commit frontier are discarded (they touched neither the gate
// nor the store), and the call returns the partial Result — the
// committed prefix in id order, plus any completed declared readers —
// alongside a typed ErrCanceled- or ErrDeadline-wrapped error. On a
// watermark-anchored engine the batch's id window stays consumed: a
// later batch must still use higher ids, exactly as if the cancelled
// transactions had been aborted. A batch rejected before anything runs
// (a reader declaration it breaks, ids not above the prior batches')
// consumes no ids.
func (e *ParallelEngine) ExecuteBatchCtx(ctx context.Context, programs map[int]*program.Program) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.batchMu.Lock()
	defer e.batchMu.Unlock()

	ids, roList := e.ids[:0], e.roList[:0]
	for id := range programs {
		if e.readOnly[id] {
			roList = append(roList, id)
			continue
		}
		ids = append(ids, id)
	}
	e.ids, e.roList = ids, roList
	slices.Sort(ids)
	if err := checkReaders(roList, programs); err != nil {
		return nil, err
	}
	// Enforce the cross-batch id discipline the watermark queue relies
	// on: advanceFloor compares raw transaction ids against the gate's
	// CompactWatermark, so a later batch reusing lower ids would drain
	// stale queue entries and advance the retention floor past versions
	// the certifier has not reclaimed, breaking AcquireAt's
	// never-denied-above-watermark contract. Only a batch that passed
	// every up-front check uses up its ids.
	if e.full != nil && len(ids) > 0 {
		if e.wmIDSeen && ids[0] <= e.wmMaxID {
			return nil, fmt.Errorf("exec: batch transaction id %d not above prior batch maximum %d: a watermark-anchored engine requires globally ascending ids across batches", ids[0], e.wmMaxID)
		}
		e.wmMaxID = ids[len(ids)-1]
		e.wmIDSeen = true
	}

	tasks := len(ids) + len(roList)
	clear(e.ops)
	clear(e.ro)
	bs := &batchState{
		ops:    e.ops[:0],
		tms:    make([]TxnMetrics, tasks),
		perTxn: make(map[int]*TxnMetrics, tasks),
		ro:     e.ro[:0],
	}
	if cap(e.attempts) < len(ids) {
		e.attempts = make([]attempt, len(ids))
	}
	attempts := e.attempts[:len(ids)]
	clear(attempts)

	workers := min(len(e.pool), tasks)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		w := &e.pool[k]
		w.reset()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if bs.failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(bs.claim.Add(1)) - 1
				if i >= tasks {
					return
				}
				if i >= len(ids) {
					e.executeRO(w, bs, i, roList[i-len(ids)], programs)
					continue
				}
				id, a := ids[i], &attempts[i]
				e.execute(w, id, programs[id], a)
				// Speculative retry loop: re-execute on a program error or
				// stale reads, within budget. Errors here are not yet
				// authoritative — a torn cross-item read can make a program
				// fail spuriously; the commit turn re-executes against a
				// frozen store before believing any error.
				for r := 0; r < e.maxRetries; r++ {
					if a.err == nil && e.store.validate(a.ops, a.vers) {
						break
					}
					if a.err == nil {
						bs.conflicts.Add(1)
					}
					bs.retries.Add(1)
					if bs.failed.Load() || ctx.Err() != nil {
						return
					}
					e.execute(w, id, programs[id], a)
				}
				a.ready.Store(true)
				// Drain after every deposit: the worker that deposits the
				// transaction at the commit frontier advances it, so by the
				// time the pool drains, every deposited attempt has been
				// committed or discarded.
				e.drain(ctx, w, bs, attempts, ids, programs)
			}
		}()
	}
	wg.Wait()
	e.ops, e.ro = bs.ops, bs.ro

	// A failed batch's committed prefix is settled too.
	var settleErr error
	if e.full != nil {
		settleErr = e.full.Settle()
	}
	if bs.err != nil {
		return nil, bs.err
	}
	if settleErr != nil {
		return nil, errors.Join(CancelError(ctx), settleErr)
	}
	roOps := 0
	for _, r := range bs.ro {
		roOps += len(r.ops)
	}
	merged := spliceRO(bs.ops, bs.ro)
	if len(bs.ro) > 0 {
		// Re-derive per-transaction spans in merged-schedule
		// coordinates (the splice shifts read-write positions past
		// each insertion). A transaction's operations are contiguous —
		// readers are spliced in between transactions — so its first
		// is the one whose predecessor belongs to another. Transactions
		// without operations keep their deposit-time spans.
		for k, o := range merged {
			tm := bs.perTxn[o.Txn]
			if k == 0 || merged[k-1].Txn != o.Txn {
				tm.Start = o.Pos
			}
			tm.End = o.Pos + 1
		}
	}
	m := Metrics{
		Ticks:     len(bs.ops),
		PerTxn:    bs.perTxn,
		Retries:   int(bs.retries.Load()),
		Conflicts: int(bs.conflicts.Load()),
		ROTxns:    len(bs.ro),
		ROOps:     roOps,
		MV:        e.store.VersionStats(),
	}
	if e.full != nil {
		m.Gate = e.full.Stats()
	}
	// A cancelled batch still returns the committed prefix; CancelError
	// is nil on the normal path.
	return &Result{
		Schedule: txn.AdoptSchedule(merged),
		Final:    e.store.Snapshot(),
		Metrics:  m,
	}, CancelError(ctx)
}

// executeRO serves one declared read-only transaction: pin a snapshot
// atomically with the commit step (bs.mu is the commit lock, so
// len(bs.ops) is exactly the operation count of the committed prefix
// the snapshot captures), run the program against the frozen view off
// the lock, and deposit the result for the end-of-batch splice. A
// program error is authoritative — the snapshot is a consistent
// committed state, so a serial run fails identically. task is the
// reader's index among the batch's tasks.
func (e *ParallelEngine) executeRO(w *worker, bs *batchState, task, id int, programs map[int]*program.Program) {
	bs.mu.Lock()
	stamp := e.store.pin()
	anchor := len(bs.ops)
	order := bs.roSeq
	bs.roSeq++
	bs.mu.Unlock()

	ops, err := w.ro.read(&w.m, e.interp, id, stamp, programs[id])
	e.store.unpin(stamp)

	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err != nil {
		bs.fail(fmt.Errorf("exec: T%d: %w", id, err))
		return
	}
	bs.ro = append(bs.ro, roResult{id: id, anchor: anchor, order: order, ops: ops})
	tm := &bs.tms[task]
	*tm = TxnMetrics{Start: anchor, End: anchor, Ops: len(ops)}
	bs.perTxn[id] = tm
}

// drain advances the commit frontier: while the next transaction in id
// order has a deposited attempt, validate its read stamps, re-execute
// it authoritatively if stale or errored (the store is frozen while
// bs.mu is held — commits happen nowhere else — so the re-execution
// observes exactly the committed prefix and cannot conflict; this is
// what bounds retry livelock), certify the final sequence through the
// gate, and apply the writes. A re-execution runs through w, the
// draining worker.
func (e *ParallelEngine) drain(ctx context.Context, w *worker, bs *batchState, attempts []attempt, ids []int, programs map[int]*program.Program) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for bs.err == nil && bs.next < len(ids) {
		if ctx.Err() != nil {
			return
		}
		a := &attempts[bs.next]
		if !a.ready.Load() {
			return
		}
		id := ids[bs.next]
		forced := false
		if e.inj != nil {
			d := e.inj.Eval(fault.Point{Site: e.injSite, Op: fault.OpCommit})
			if d.Latency > 0 {
				time.Sleep(d.Latency)
			}
			forced = d.Err != nil
		}
		// A cancel injected at this commit turn (fault.KindCancel at
		// OpCommit) must prevent this turn's admission: re-check after
		// the injector fired, before the gate or store is touched.
		if ctx.Err() != nil {
			return
		}
		if forced || a.err != nil || !e.store.validate(a.ops, a.vers) {
			if !forced && a.err == nil {
				bs.conflicts.Add(1)
			}
			bs.retries.Add(1)
			e.execute(w, id, programs[id], a)
			if a.err != nil {
				// Authoritative: the program failed against the exact
				// serial-prefix state, so a serial run fails here too.
				bs.fail(fmt.Errorf("exec: T%d: %w", id, a.err))
				return
			}
		}
		// The sequence is stamped with its schedule positions in the
		// schedule itself: the attempt's operations stay in the
		// executing worker's arena, which that worker may be copying.
		base := len(bs.ops)
		bs.ops = append(bs.ops, a.ops...)
		seq := bs.ops[base:len(bs.ops):len(bs.ops)]
		for k := range seq {
			seq[k].Pos = base + k
		}
		if e.gate != nil {
			if err := e.gate.AdmitTxn(seq); err != nil {
				bs.ops = bs.ops[:base]
				bs.fail(fmt.Errorf("exec: T%d: %w", id, err))
				return
			}
		}
		e.store.commit(seq)
		tm := &bs.tms[bs.next]
		*tm = TxnMetrics{Start: base, End: len(bs.ops), Ops: len(seq)}
		bs.perTxn[id] = tm
		bs.next++
		e.advanceFloor(id)
	}
}

// advanceFloor chases the certifier's Compact watermark after a
// commit: record the committed transaction's stamp, then raise the
// store's retention floor to the stamp of the last commit at or below
// the reported watermark. Commits land in ascending id order within a
// batch and ExecuteBatchCtx rejects batches whose ids are not above every
// prior batch's, so the watermark is a true prefix bound and the queue
// drains in order. Called with bs.mu held (the commit step).
func (e *ParallelEngine) advanceFloor(id int) {
	if e.full == nil {
		return
	}
	e.wmQueue = append(e.wmQueue, txnStamp{txn: id, stamp: e.store.Stamp()})
	e.syncFloor()
}

// syncFloor drains the watermark queue up to the gate's Compact
// watermark and raises the retention floor to the last drained stamp.
func (e *ParallelEngine) syncFloor() {
	w := e.full.CompactWatermark()
	var floor uint64
	drop := 0
	for _, ts := range e.wmQueue {
		if ts.txn > w {
			break
		}
		floor = ts.stamp
		drop++
	}
	if drop > 0 {
		e.wmQueue = append(e.wmQueue[:0], e.wmQueue[drop:]...)
		e.store.SetRetainFloor(floor)
	}
}

// Drain gracefully shuts the engine's admission path down: the gate is
// drained (when it is a Gate — the sched gates are), and the
// store's retention floor is then advanced to the gate's final Compact
// watermark, draining the watermark queue the way a further batch's
// commits would. Pinned snapshots keep their versions readable below
// the new floor until released (VersionedStore's keep rule), so a
// reader holding a snapshot across the drain is never cut off. The
// gate's typed drain error (if any) is returned; the floor sync runs
// either way. No batch may be executing concurrently.
func (e *ParallelEngine) Drain(ctx context.Context) error {
	e.batchMu.Lock()
	defer e.batchMu.Unlock()
	if e.full == nil {
		return nil
	}
	err := e.full.Drain(ctx)
	e.syncFloor()
	return err
}

// execute runs transaction id speculatively against the current store
// through w and makes a its outcome.
func (e *ParallelEngine) execute(w *worker, id int, p *program.Program, a *attempt) {
	acc := &w.rw
	acc.id = id
	start := len(acc.ops)
	a.err = w.m.Run(e.interp, p, acc)
	end := len(acc.ops)
	a.ops, a.vers = acc.ops[start:end:end], acc.vers[start:end:end]
}

// versionedAccessor adapts a VersionedStore to program.Accessor for
// speculative executions: every access is appended to ops, the
// operation sequence the transaction will submit at commit, and every
// read's version stamp to vers at the same index (the validation set;
// a write's entry is 0). ops and vers are a worker's arenas (see
// worker). It relies on program.Accessor's guarantee — each item
// reaches Read at most once and never after the program's own Write —
// so what it records is exactly the first-read/first-write stream of the
// schedule, and the writes among it are what the commit applies.
type versionedAccessor struct {
	store *VersionedStore
	id    int
	ops   []txn.Op
	vers  []uint64
}

// Read implements program.Accessor.
func (a *versionedAccessor) Read(item string) (state.Value, error) {
	val, ver, ok := a.store.Get(item)
	if !ok {
		return state.Value{}, fmt.Errorf("exec: data item %q has no value", item)
	}
	a.ops = append(a.ops, txn.Op{Txn: a.id, Action: txn.ActionRead, Entity: item, Value: val, Pos: -1})
	a.vers = append(a.vers, ver)
	return val, nil
}

// Write implements program.Accessor.
func (a *versionedAccessor) Write(item string, v state.Value) error {
	a.ops = append(a.ops, txn.Op{Txn: a.id, Action: txn.ActionWrite, Entity: item, Value: v, Pos: -1})
	a.vers = append(a.vers, 0)
	return nil
}
