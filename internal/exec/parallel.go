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

// ErrGateDenied reports that a batch gate refused a transaction's
// operation sequence. For an engine-owned gate this is unreachable —
// AdmitSequence of a fresh transaction cannot be denied (see
// core.Monitor.AdmitSequence) — so seeing it means the gate is shared
// with traffic that violated the fresh-transaction contract.
var ErrGateDenied = errors.New("exec: batch admission denied by the certification gate")

// BatchGate is the admission interface the block-parallel batch
// executor drives: one call certifies and commits a finished
// transaction's whole operation sequence atomically. The sched gates
// implement it (Certify, OptimisticCertify, ParallelCertify) over
// core.Monitor / core.ShardedMonitor, so a batch admitted through a
// gate carries the same PWSR proof obligation as a ticked schedule.
type BatchGate interface {
	// AdmitTxn atomically certifies one transaction's complete,
	// position-stamped operation sequence and commits the transaction
	// on success. A nil error means the sequence is certified, durable
	// (if a journal is attached), and committed. ErrGateDenied (or an
	// error wrapping it) means the admission was refused and rolled
	// back. Any other error is fatal gate state: a certifier violation
	// or journal fail-stop.
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
// An engine is safe for sequential reuse: successive ExecuteBatch
// calls run against the store state the previous batch left behind
// (batch transaction ids must remain unique across the engine's
// lifetime when a gate is attached, and globally ascending when the
// gate reports a Compact watermark — ExecuteBatch enforces the
// latter).
type ParallelEngine struct {
	store      *VersionedStore
	gate       BatchGate
	workers    int
	maxRetries int
	interp     *program.Interp
	readOnly   map[int]bool

	// wmr is the gate's optional Compact-watermark hook. When present
	// the store runs with a manual retention floor anchored at the
	// certifier's Compact watermark: wmQueue records (txn, stamp)
	// pairs in commit order, and the floor advances to the stamp of
	// the last commit at or below the reported watermark — version GC
	// and certifier GC follow the same low-watermark argument.
	wmr     WatermarkReporter
	wmQueue []txnStamp
	// wmMaxID is the highest read-write transaction id any prior batch
	// submitted (valid when wmIDSeen). wmQueue persists across batches
	// and drains by comparing raw ids against the gate's
	// CompactWatermark, so the retention floor is only correct when ids
	// ascend globally across an engine's batches — ExecuteBatch rejects
	// a batch that reuses or reorders ids below this high-water mark.
	wmMaxID  int
	wmIDSeen bool

	// batchMu serializes ExecuteBatch calls; the worker pool and commit
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
}

// SetFaultInjector registers the deterministic fault injector the
// engine consults at each commit turn (site tags the injection point,
// e.g. "engine"). Call before ExecuteBatch; nil detaches.
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
		workers:    workers,
		maxRetries: retries,
		interp:     in,
	}
	if len(cfg.ReadOnly) > 0 {
		e.readOnly = make(map[int]bool, len(cfg.ReadOnly))
		for id, on := range cfg.ReadOnly {
			if on {
				e.readOnly[id] = true
			}
		}
	}
	if wmr, ok := cfg.Gate.(WatermarkReporter); ok {
		e.wmr = wmr
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

// RunParallel executes one batch of programs on a fresh engine — the
// batch-mode counterpart of Run.
func RunParallel(cfg ParallelConfig, programs map[int]*program.Program) (*Result, error) {
	return NewParallelEngine(cfg).ExecuteBatch(programs)
}

// RunParallelCtx is RunParallel with cancellation — the batch-mode
// counterpart of RunCtx.
func RunParallelCtx(ctx context.Context, cfg ParallelConfig, programs map[int]*program.Program) (*Result, error) {
	return NewParallelEngine(cfg).ExecuteBatchCtx(ctx, programs)
}

// attempt is one completed speculative execution of a program: the
// operation sequence it would contribute to the schedule, the version
// stamps it read (the validation set), and the write set it would
// apply.
type attempt struct {
	ops    []txn.Op
	reads  map[string]uint64
	writes map[string]state.Value
	err    error
}

// batchState is the commit pipeline's shared state, guarded by mu.
type batchState struct {
	mu     sync.Mutex
	next   int // index into ids of the next transaction to commit
	ops    []txn.Op
	perTxn map[int]*TxnMetrics
	err    error
	failed atomic.Bool // lock-free mirror of err != nil for worker bail-out

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

// ExecuteBatch runs one batch of independent programs to completion
// and returns the combined result: the schedule in ascending
// transaction-id (= commit) order, the final store state, and metrics
// (Ticks counts committed read-write operations as in Run;
// Retries/Conflicts count the speculation cost; gate reporter
// counters are harvested as in Run). On a program error or fatal gate
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
func (e *ParallelEngine) ExecuteBatch(programs map[int]*program.Program) (*Result, error) {
	return e.ExecuteBatchCtx(context.Background(), programs)
}

// ExecuteBatchCtx is ExecuteBatch with cancellation. When ctx ends
// mid-batch the commit pipeline stops cold: the commit turn checks the
// context before every gate admission and store apply, so a
// transaction is either fully admitted-and-committed or untouched —
// never partially granted. Speculative attempts deposited but not yet
// at the commit frontier are discarded (they touched neither the gate
// nor the store), and the call returns the partial Result — the
// committed prefix in id order, plus any completed declared readers —
// alongside a typed ErrCanceled- or ErrDeadline-wrapped error. On a
// watermark-anchored engine the batch's id window stays consumed: a
// later batch must still use higher ids, exactly as if the cancelled
// transactions had been aborted.
func (e *ParallelEngine) ExecuteBatchCtx(ctx context.Context, programs map[int]*program.Program) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.batchMu.Lock()
	defer e.batchMu.Unlock()

	batchRO := make(map[int]bool)
	ids := make([]int, 0, len(programs))
	for id := range programs {
		if e.readOnly[id] {
			batchRO[id] = true
			continue
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// Enforce the cross-batch id discipline the watermark queue relies
	// on: advanceFloor compares raw transaction ids against the gate's
	// CompactWatermark, so a later batch reusing lower ids would drain
	// stale queue entries and advance the retention floor past versions
	// the certifier has not reclaimed, breaking AcquireAt's
	// never-denied-above-watermark contract.
	if e.wmr != nil && len(ids) > 0 {
		if e.wmIDSeen && ids[0] <= e.wmMaxID {
			return nil, fmt.Errorf("exec: batch transaction id %d not above prior batch maximum %d: a watermark-anchored engine requires globally ascending ids across batches", ids[0], e.wmMaxID)
		}
		e.wmMaxID = ids[len(ids)-1]
		e.wmIDSeen = true
	}
	roList, err := roIDs(batchRO, programs)
	if err != nil {
		return nil, err
	}

	bs := &batchState{perTxn: make(map[int]*TxnMetrics, len(programs))}
	slots := make([]atomic.Pointer[attempt], len(ids))
	var claim, retries, conflicts atomic.Int64
	tasks := len(ids) + len(roList)

	workers := min(e.workers, tasks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if bs.failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(claim.Add(1)) - 1
				if i >= tasks {
					return
				}
				if i >= len(ids) {
					e.executeRO(bs, roList[i-len(ids)], programs)
					continue
				}
				id := ids[i]
				a := e.execute(id, programs[id])
				// Speculative retry loop: re-execute on a program error or
				// stale reads, within budget. Errors here are not yet
				// authoritative — a torn cross-item read can make a program
				// fail spuriously; the commit turn re-executes against a
				// frozen store before believing any error.
				for r := 0; r < e.maxRetries; r++ {
					if a.err == nil && e.store.validate(a.reads) {
						break
					}
					if a.err == nil {
						conflicts.Add(1)
					}
					retries.Add(1)
					if bs.failed.Load() || ctx.Err() != nil {
						return
					}
					a = e.execute(id, programs[id])
				}
				slots[i].Store(a)
				// Drain after every deposit: the worker that deposits the
				// transaction at the commit frontier advances it, so by the
				// time the pool drains, every deposited attempt has been
				// committed or discarded.
				e.drain(ctx, bs, slots, ids, programs, &retries, &conflicts)
			}
		}()
	}
	wg.Wait()

	if bs.err != nil {
		return nil, bs.err
	}
	roOps := 0
	for _, r := range bs.ro {
		roOps += len(r.ops)
	}
	merged := spliceRO(bs.ops, bs.ro)
	if len(bs.ro) > 0 {
		// Re-derive per-transaction spans in merged-schedule
		// coordinates (the splice shifts read-write positions past
		// each insertion). Transactions without operations keep their
		// deposit-time spans.
		seen := make(map[int]bool, len(bs.perTxn))
		for _, o := range merged {
			tm := bs.perTxn[o.Txn]
			if !seen[o.Txn] {
				seen[o.Txn] = true
				tm.Start = o.Pos
			}
			tm.End = o.Pos + 1
		}
	}
	m := Metrics{
		Ticks:     len(bs.ops),
		PerTxn:    bs.perTxn,
		Retries:   int(retries.Load()),
		Conflicts: int(conflicts.Load()),
		ROTxns:    len(bs.ro),
		ROOps:     roOps,
		MV:        e.store.VersionStats(),
	}
	harvestReporters(e.gate, &m)
	// A cancelled batch still returns the committed prefix; CancelError
	// is nil on the normal path.
	return &Result{
		Schedule: txn.NewSchedule(merged...),
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
// committed state, so a serial run fails identically.
func (e *ParallelEngine) executeRO(bs *batchState, id int, programs map[int]*program.Program) {
	bs.mu.Lock()
	sn := e.store.Acquire()
	anchor := len(bs.ops)
	order := bs.roSeq
	bs.roSeq++
	bs.mu.Unlock()

	acc := &snapshotAccessor{sn: sn, id: id}
	err := e.interp.Run(programs[id], acc)
	sn.Release()

	bs.mu.Lock()
	defer bs.mu.Unlock()
	if err != nil {
		bs.fail(fmt.Errorf("exec: T%d: %w", id, err))
		return
	}
	bs.ro = append(bs.ro, roResult{id: id, anchor: anchor, order: order, ops: acc.ops})
	bs.perTxn[id] = &TxnMetrics{Start: anchor, End: anchor, Ops: len(acc.ops)}
}

// drain advances the commit frontier: while the next transaction in id
// order has a deposited attempt, validate its read stamps, re-execute
// it authoritatively if stale or errored (the store is frozen while
// bs.mu is held — commits happen nowhere else — so the re-execution
// observes exactly the committed prefix and cannot conflict; this is
// what bounds retry livelock), certify the final sequence through the
// gate, and apply the writes.
func (e *ParallelEngine) drain(ctx context.Context, bs *batchState, slots []atomic.Pointer[attempt], ids []int, programs map[int]*program.Program, retries, conflicts *atomic.Int64) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for bs.err == nil && bs.next < len(ids) {
		if ctx.Err() != nil {
			return
		}
		a := slots[bs.next].Load()
		if a == nil {
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
		if forced || a.err != nil || !e.store.validate(a.reads) {
			if !forced && a.err == nil {
				conflicts.Add(1)
			}
			retries.Add(1)
			a = e.execute(id, programs[id])
			if a.err != nil {
				// Authoritative: the program failed against the exact
				// serial-prefix state, so a serial run fails here too.
				bs.err = fmt.Errorf("exec: T%d: %w", id, a.err)
				bs.failed.Store(true)
				return
			}
		}
		base := len(bs.ops)
		for k := range a.ops {
			a.ops[k].Pos = base + k
		}
		if e.gate != nil {
			if err := e.gate.AdmitTxn(a.ops); err != nil {
				bs.err = fmt.Errorf("exec: T%d: %w", id, err)
				bs.failed.Store(true)
				return
			}
		}
		e.store.commit(a.writes)
		bs.ops = append(bs.ops, a.ops...)
		bs.perTxn[id] = &TxnMetrics{Start: base, End: base + len(a.ops), Ops: len(a.ops)}
		bs.next++
		e.advanceFloor(id)
	}
}

// advanceFloor chases the certifier's Compact watermark after a
// commit: record the committed transaction's stamp, then raise the
// store's retention floor to the stamp of the last commit at or below
// the reported watermark. Commits land in ascending id order within a
// batch and ExecuteBatch rejects batches whose ids are not above every
// prior batch's, so the watermark is a true prefix bound and the queue
// drains in order. Called with bs.mu held (the commit step).
func (e *ParallelEngine) advanceFloor(id int) {
	if e.wmr == nil {
		return
	}
	e.wmQueue = append(e.wmQueue, txnStamp{txn: id, stamp: e.store.Stamp()})
	w := e.wmr.CompactWatermark()
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
// drained (when it implements Drainer — the sched gates do), and the
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
	var err error
	if d, ok := e.gate.(Drainer); ok {
		err = d.Drain(ctx)
	}
	if e.wmr != nil && len(e.wmQueue) > 0 {
		w := e.wmr.CompactWatermark()
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
	return err
}

// execute runs one program speculatively against the current store and
// packages the outcome as an attempt.
func (e *ParallelEngine) execute(id int, p *program.Program) *attempt {
	acc := &versionedAccessor{store: e.store, id: id}
	err := e.interp.Run(p, acc)
	return &attempt{ops: acc.ops, reads: acc.reads, writes: acc.writes, err: err}
}

// versionedAccessor adapts a VersionedStore to program.Accessor for
// one speculative execution: reads record the version stamp they saw
// (the validation set), writes buffer locally, and every access is
// appended to the operation sequence the transaction will submit at
// commit. It relies on program.Accessor's guarantee — each item reaches
// Read at most once and never after the program's own Write — so what it
// records is exactly the first-read/first-write stream of the schedule.
type versionedAccessor struct {
	store  *VersionedStore
	id     int
	ops    []txn.Op
	reads  map[string]uint64
	writes map[string]state.Value
}

// Read implements program.Accessor.
func (a *versionedAccessor) Read(item string) (state.Value, error) {
	val, ver, ok := a.store.Get(item)
	if !ok {
		return state.Value{}, fmt.Errorf("exec: data item %q has no value", item)
	}
	if a.reads == nil {
		a.reads = make(map[string]uint64)
	}
	a.reads[item] = ver
	a.ops = append(a.ops, txn.Op{Txn: a.id, Action: txn.ActionRead, Entity: item, Value: val, Pos: -1})
	return val, nil
}

// Write implements program.Accessor.
func (a *versionedAccessor) Write(item string, v state.Value) error {
	if a.writes == nil {
		a.writes = make(map[string]state.Value)
	}
	a.writes[item] = v
	a.ops = append(a.ops, txn.Op{Txn: a.id, Action: txn.ActionWrite, Entity: item, Value: v, Pos: -1})
	return nil
}
