package core

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pwsr/internal/intern"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ShardedMonitor is the concurrent PWSR certifier: the conjunct
// partition is split into contiguous blocks ("shards"), each shard
// running an independent Monitor — its own interned transactions,
// conflict frontiers, and Pearce–Kelly order — over its block, behind
// its own lock. The decomposition is sound because conflict edges only
// arise between operations on the same item and every item's edges
// within a conjunct belong to that conjunct's graph (Definition 2
// checks each conjunct's projection in isolation; this is the same
// per-conjunct locality Lemma 3 and Theorem 1 exploit), so a conflict
// cycle can never span two conjuncts, let alone two shards: each
// shard's verdict is independent and the global PWSR decision is
// exactly the conjunction of the shard verdicts.
//
// Concurrency model. Every entry point is safe for concurrent use. An
// operation is routed through a shared lock-free table (intern.Shared
// plus a copy-on-write route slice) to the shards whose conjuncts
// mention its item, and counted against its transaction's entry in the
// transaction table (a read-locked map hit); each routed shard is then
// visited in ascending order under its lock, so operations touching
// disjoint shards never wait on each other. ObserveAll is Observe in a
// loop. The certification gates call in under their own mutex, one
// entry point at a time; the locks serve direct concurrent callers.
// Verdicts merge through a single sticky violation slot (first CAS
// wins); once any shard trips, the monitor as a whole is violated,
// mirroring Monitor's stickiness.
//
// Fed from a single goroutine, a ShardedMonitor is observationally
// identical to Monitor over the same partition — same verdicts, same
// flagged operations, same witness cycles, same conflict edges —
// which TestShardedMonitorDifferential asserts against random
// Observe/Retract interleavings at shard counts 1..8.
type ShardedMonitor struct {
	partition []state.ItemSet
	shards    []*monitorShard
	// shardOf maps a global conjunct index to its shard; blocks are
	// contiguous, so ascending shard order is ascending conjunct order
	// and the sequential-feed tie-breaking (lowest conjunct first)
	// matches Monitor exactly.
	shardOf []int32

	// router interns entities and routes[id] is the set of shards whose
	// conjuncts mention the entity. Both structures are copy-on-write
	// (writers under routeMu) with lock-free readers: the item working
	// set saturates, so misses stop and every later operation is a hit
	// that must not serialize the shards (the consumer intern.Shared
	// exists for).
	router  *intern.Shared
	routes  atomic.Pointer[[]shardSet]
	routeMu sync.Mutex

	violation atomic.Pointer[Violation]
	ops       atomic.Int64
	// txns is the transaction table of the multi-shard mode (the
	// single-shard fast path delegates wholly to the inner monitor):
	// one entry per transaction the sharded level has seen and not yet
	// reclaimed, the counterpart of Monitor's dense per-txn tables. It
	// is updated in place under txnMu — every transaction is a miss
	// once, so unlike the routes a copy per miss would cost O(live
	// transactions) per transaction. The per-op hit path holds the read
	// lock for one map load; inserts (first sight, Commit of an unseen
	// id) and deletes (Compact) hold the write lock for one map
	// operation each. live counts the resident entries (ops > 0), and
	// pending queues the committed ids no pass has reclaimed yet, in
	// commit order, so a pass visits its candidates, not the table. free
	// holds the entries passes reclaimed, for entryLocked to hand out
	// again: entries ever allocated are the table's peak population.
	txnMu   sync.RWMutex
	txns    map[int]*shardedTxn
	live    atomic.Int64
	pending []int
	free    []*shardedTxn
	// commitsSince and autoEvery are guarded by txnMu; compactMu
	// serializes Compact passes and guards their scratch (held, gone);
	// watermark is the highest committed transaction id (CAS-maxed,
	// monotone); compactions and reclaimedTxns are the sharded-level
	// lifecycle counters.
	commitsSince  int
	autoEvery     int
	compactMu     sync.Mutex
	held          []shardSet
	gone          []int
	watermark     atomic.Int64
	compactWM     atomic.Int64
	compactions   atomic.Int64
	reclaimedTxns atomic.Int64

	// sink, when non-nil, observes the applied lifecycle stream. In
	// multi-shard mode the sharded level emits (one record per logical
	// event, not per shard fan-out) and requires a single-goroutine
	// feed; in single-shard mode the inner monitor carries the sink.
	// See LifecycleSink and SetSink.
	sink LifecycleSink

	// single short-circuits the one-shard configuration: routing is
	// pointless (the shard's Monitor routes over the whole partition
	// itself) and the inner monitor's own op counters are exact, so
	// Observe/Admissible/Retract delegate under the shard lock alone —
	// the overhead over a bare Monitor is one uncontended lock.
	single bool
}

// maxShards bounds the shard count so that a set of shards is one
// machine word.
const maxShards = 64

// shardSet is a set of shard indices, bit s for shard s: the route of
// an interned entity (empty for items outside every conjunct, which are
// ignored per Definition 2) or the footprint of a transaction.
type shardSet uint64

// lowest returns the lowest shard of a non-empty set, so
// `for r := set; r != 0; r &= r - 1 { … r.lowest() … }` visits the
// shards in ascending order — the lock order.
func (r shardSet) lowest() int { return bits.TrailingZeros64(uint64(r)) }

// shardedTxn is one transaction's entry in the transaction table: its
// surviving operation count (resident while positive), the set of
// shards its operations ever routed to, and the commit mark. Like
// Monitor's per-txn state the entry survives Retract — the shards keep
// the transaction's emptied nodes, and a later Commit must still reach
// them — and is deleted when a Compact pass reclaims the committed
// transaction, which zeroes it for reuse by a later transaction. ops
// and shards are atomics updated through the entry pointer with no
// table lock held (only committed entries are ever deleted, and a
// committed transaction takes no operations; Commit reads the shard set
// before it lets the lock go); committed is guarded by the table lock.
type shardedTxn struct {
	ops       atomic.Int64
	shards    atomic.Uint64
	committed bool
}

// monitorShard is one block of conjuncts behind its own lock.
type monitorShard struct {
	mu sync.Mutex
	// mon is the shard's independent certifier over partition[lo:hi].
	mon    *Monitor
	lo, hi int
}

// NewShardedMonitor builds a sharded monitor over the conjunct
// partition. shards ≤ 0 selects GOMAXPROCS; the count is clamped to
// the number of conjuncts (a shard without conjuncts would never
// receive work), to maxShards, and to a minimum of one.
func NewShardedMonitor(partition []state.ItemSet, shards int) *ShardedMonitor {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = max(1, min(shards, len(partition), maxShards))
	m := &ShardedMonitor{
		partition: partition,
		router:    intern.NewShared(),
		shardOf:   make([]int32, len(partition)),
		single:    shards == 1,
		txns:      make(map[int]*shardedTxn),
		autoEvery: DefaultAutoCompactEvery,
	}
	empty := make([]shardSet, 0)
	m.routes.Store(&empty)
	l := len(partition)
	for s := 0; s < shards; s++ {
		lo, hi := s*l/shards, (s+1)*l/shards
		m.shards = append(m.shards, &monitorShard{
			mon: NewMonitor(partition[lo:hi]),
			lo:  lo,
			hi:  hi,
		})
		for e := lo; e < hi; e++ {
			m.shardOf[e] = int32(s)
		}
	}
	if !m.single {
		// The sharded level owns the compaction cadence: per-shard
		// passes must be paired with the transaction table's pruning,
		// so the inner monitors' own automatic triggers are disabled.
		for _, sh := range m.shards {
			sh.mon.SetAutoCompact(0)
		}
	}
	return m
}

// Shards returns the number of shards.
func (m *ShardedMonitor) Shards() int { return len(m.shards) }

// Partition returns the conjunct partition the monitor certifies over.
// Callers must not modify it.
func (m *ShardedMonitor) Partition() []state.ItemSet { return m.partition }

// Ops returns the number of operations observed (minus retracted
// transactions' operations).
func (m *ShardedMonitor) Ops() int {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.Ops()
	}
	return int(m.ops.Load())
}

// PWSR reports whether everything observed so far is PWSR.
func (m *ShardedMonitor) PWSR() bool { return m.violation.Load() == nil }

// Violation returns the first violation, or nil.
func (m *ShardedMonitor) Violation() *Violation { return m.violation.Load() }

// lookupTxn returns the transaction's table entry (nil when the
// sharded level holds none) and whether it is marked committed.
func (m *ShardedMonitor) lookupTxn(txnID int) (c *shardedTxn, committed bool) {
	m.txnMu.RLock()
	defer m.txnMu.RUnlock()
	c = m.txns[txnID]
	return c, c != nil && c.committed
}

// openTxn returns the table entry new operations of the transaction
// count against, inserting it on first sight, and raises the
// op-after-commit lifecycle error for verb: shards outside a committed
// transaction's footprint never learn of the commit, so the contract is
// enforced here rather than by the inner monitors.
func (m *ShardedMonitor) openTxn(verb string, txnID int) *shardedTxn {
	c, committed := m.lookupTxn(txnID)
	if c == nil {
		m.txnMu.Lock()
		c = m.entryLocked(txnID)
		committed = c.committed
		m.txnMu.Unlock()
	}
	if committed {
		panic(&LifecycleError{Verb: verb, Txn: txnID, Reason: "operation for a committed transaction"})
	}
	return c
}

// entryLocked returns the transaction's table entry, inserting an empty
// one — a reclaimed entry when a pass left one — when there is none.
// The caller holds the table's write lock.
func (m *ShardedMonitor) entryLocked(txnID int) *shardedTxn {
	c := m.txns[txnID]
	if c == nil {
		if n := len(m.free); n > 0 {
			c, m.free = m.free[n-1], m.free[:n-1]
		} else {
			c = new(shardedTxn)
		}
		m.txns[txnID] = c
	}
	return c
}

// count records n observed operations routed to the shards r against
// the entry and the global operation count.
func (m *ShardedMonitor) count(c *shardedTxn, n int, r shardSet) {
	m.ops.Add(int64(n))
	if c.ops.Add(int64(n)) == int64(n) {
		m.live.Add(1)
	}
	if uint64(r)&^c.shards.Load() != 0 {
		c.shards.Or(uint64(r))
	}
}

// routeFor returns the entity's shard route, interning the entity and
// computing its conjunct membership on first sight.
func (m *ShardedMonitor) routeFor(entity string) shardSet {
	if id, ok := m.router.Lookup(entity); ok {
		if rs := *m.routes.Load(); int(id) < len(rs) {
			return rs[id]
		}
	}
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	id := m.router.ID(entity)
	rs := *m.routes.Load()
	if int(id) < len(rs) {
		return rs[id]
	}
	var r shardSet
	for e, d := range m.partition {
		if d.Contains(entity) {
			r |= 1 << m.shardOf[e]
		}
	}
	next := make([]shardSet, len(rs)+1)
	copy(next, rs)
	next[id] = r
	m.routes.Store(&next)
	return r
}

// lookupRoute returns the entity's route without interning it. A
// router hit whose route is still being published (the router and the
// route slice are updated in one critical section, but readers load
// them separately) waits on the route mutex.
func (m *ShardedMonitor) lookupRoute(entity string) (shardSet, bool) {
	id, ok := m.router.Lookup(entity)
	if !ok {
		return 0, false
	}
	if rs := *m.routes.Load(); int(id) < len(rs) {
		return rs[id], true
	}
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	return (*m.routes.Load())[id], true
}

// globalViolation remaps a shard-local violation to global conjunct
// indices and publishes it as the sticky global verdict; the first
// publisher wins and every caller returns the winner.
func (m *ShardedMonitor) globalViolation(sh *monitorShard, v *Violation) *Violation {
	gv := &Violation{Conjunct: sh.lo + v.Conjunct, Op: v.Op, Cycle: v.Cycle}
	m.violation.CompareAndSwap(nil, gv)
	return m.violation.Load()
}

// Observe admits one operation with Monitor.Observe's contract, safe
// for concurrent callers: the operation is routed to the shards whose
// conjuncts mention its item and certified under each shard's lock in
// ascending order. Operations routed to disjoint shards proceed in
// parallel.
func (m *ShardedMonitor) Observe(o txn.Op) *Violation {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		v := sh.mon.Observe(o)
		sh.mu.Unlock()
		if v != nil {
			return m.globalViolation(sh, v)
		}
		return nil
	}
	c := m.openTxn("Observe", o.Txn)
	// The sticky monitor counts a post-violation observation but no
	// longer certifies it.
	v := m.violation.Load()
	var route shardSet
	if v == nil {
		route = m.routeFor(o.Entity)
	}
	m.count(c, 1, route)
	for r := route; r != 0 && v == nil; r &= r - 1 {
		sh := m.shards[r.lowest()]
		sh.mu.Lock()
		sv := sh.mon.Observe(o)
		sh.mu.Unlock()
		if sv != nil {
			v = m.globalViolation(sh, sv)
		}
	}
	if m.sink != nil {
		m.sink.LogObserve(o)
	}
	return v
}

// Admissible reports whether admitting o now would keep every
// conjunct's projection serializable, with Monitor.Admissible's
// contract but safe for concurrent callers: probes for operations on
// disjoint shards evaluate in parallel, probes contending for a shard
// serialize on its lock.
func (m *ShardedMonitor) Admissible(o txn.Op) bool {
	if m.violation.Load() != nil {
		return false
	}
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.Admissible(o)
	}
	r, ok := m.lookupRoute(o.Entity)
	if !ok {
		return true // never-seen item: no shard has state on it
	}
	for ; r != 0; r &= r - 1 {
		sh := m.shards[r.lowest()]
		sh.mu.Lock()
		ok := sh.mon.Admissible(o)
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// Retract removes every observed operation of the transaction with
// Monitor.Retract's contract: each shard the transaction's operations
// routed to (the shard set on its table entry) rolls the transaction
// out of its graphs under its lock — shards it never touched are not
// visited, so the rollback fan-out scales with the transaction's
// footprint rather than the shard count — and the global operation
// count is repaired from the entry's. The entry stays, no longer
// resident, like Monitor's. Panics after a violation and for a
// committed transaction, like Monitor.Retract.
func (m *ShardedMonitor) Retract(txnID int) {
	if m.violation.Load() != nil {
		panic(&LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction on a violated monitor"})
	}
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		sh.mon.Retract(txnID)
		sh.mu.Unlock()
		return // the inner monitor's counters are authoritative
	}
	c, committed := m.lookupTxn(txnID)
	if committed {
		panic(&LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction of a committed transaction"})
	}
	if c == nil {
		return // never seen: nothing to roll back anywhere
	}
	for r := shardSet(c.shards.Load()); r != 0; r &= r - 1 {
		sh := m.shards[r.lowest()]
		sh.mu.Lock()
		sh.mon.Retract(txnID)
		sh.mu.Unlock()
	}
	if n := c.ops.Swap(0); n > 0 {
		m.ops.Add(-n)
		m.live.Add(-1)
	}
	if m.sink != nil {
		m.sink.LogRetract(txnID)
	}
}

// Commit marks the transaction finished with Monitor.Commit's
// contract, safe for concurrent callers: the global watermark is
// CAS-maxed, the transaction's table entry is marked (inserted first
// for an unseen id, which the next pass reclaims), the monitors of the
// shards in the entry's shard set — the only ones holding a node of
// the transaction, emptied or not — mark it under their locks, and
// once the configured number of commits accumulates a sharded Compact
// pass runs. A commit therefore costs one table visit plus one lock
// round per shard of the transaction's footprint, not per shard; the
// other shards never learn of the transaction, and the op-after-commit
// contract is raised from the table instead (see openTxn).
func (m *ShardedMonitor) Commit(txnID int) {
	if m.violation.Load() != nil {
		// The commit is a no-op everywhere, so the watermark should
		// not claim it. Best-effort only: a violation published by a
		// concurrent Observe after this check can still let the CAS
		// through — see the Watermark doc.
		return
	}
	for {
		w := m.watermark.Load()
		if int64(txnID) <= w || m.watermark.CompareAndSwap(w, int64(txnID)) {
			break
		}
	}
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		sh.mon.Commit(txnID)
		sh.mu.Unlock()
		return
	}
	m.txnMu.Lock()
	c := m.entryLocked(txnID)
	if c.committed {
		m.txnMu.Unlock()
		return // a double commit is a no-op, like Monitor.Commit's
	}
	c.committed = true
	// Once the lock is let go a pass may reclaim the entry and hand it
	// to another transaction.
	footprint := shardSet(c.shards.Load())
	m.pending = append(m.pending, txnID)
	m.commitsSince++
	trigger := m.autoEvery > 0 && m.commitsSince >= m.autoEvery
	if trigger {
		m.commitsSince = 0
	}
	m.txnMu.Unlock()
	for r := footprint; r != 0; r &= r - 1 {
		sh := m.shards[r.lowest()]
		sh.mu.Lock()
		sh.mon.Commit(txnID)
		sh.mu.Unlock()
	}
	// The commit is reported before any compaction it triggers,
	// preserving stream order.
	if m.sink != nil {
		m.sink.LogCommit(txnID)
	}
	if trigger {
		m.Compact()
	}
}

// Compact runs Monitor.Compact on every shard under its lock, then
// deletes the table entries of committed transactions no shard still
// holds — the sharded reading of the low-watermark reclamation (see
// Monitor.Compact for the soundness argument; it applies shard by
// shard because shards share no conflict edges).
// Passes are serialized against each other but run concurrently with
// Observe/Admissible/Retract traffic: each shard compacts atomically
// under its own lock. Returns the number of transactions fully
// reclaimed.
func (m *ShardedMonitor) Compact() int {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.Compact()
	}
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	if m.violation.Load() != nil {
		return 0
	}
	m.compactions.Add(1)
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.mon.Compact()
		sh.mu.Unlock()
	}
	m.txnMu.Lock()
	// A manual pass defers the next automatic one by a full interval,
	// mirroring Monitor.Compact's cadence.
	m.commitsSince = 0
	// The committed transactions are the reclamation candidates, each
	// with the shards that may still hold it.
	ids := m.pending
	m.pending = nil
	held := m.held[:0]
	for _, id := range ids {
		held = append(held, shardSet(m.txns[id].shards.Load()))
	}
	m.held = held
	m.txnMu.Unlock()
	// One locked pass per shard tests every candidate routed to it —
	// not one lock round per (id, shard) pair — so the residency scan
	// costs at most len(shards) acquisitions against the admission
	// traffic. A candidate is gone once no shard of its set holds it.
	for s, sh := range m.shards {
		sh.mu.Lock()
		for i, id := range ids {
			if bit := shardSet(1) << s; held[i]&bit != 0 && !sh.mon.liveTxn(id) {
				held[i] &^= bit
			}
		}
		sh.mu.Unlock()
	}
	gone := m.gone[:0]
	kept := ids[:0]
	for i, id := range ids {
		if held[i] == 0 {
			gone = append(gone, id)
		} else {
			kept = append(kept, id)
		}
	}
	m.gone = gone
	// Ascending ids, whatever the commit order: the reclamation order
	// of the emitted lifecycle stream.
	slices.Sort(gone)
	m.txnMu.Lock()
	m.pending = append(kept, m.pending...)
	for _, id := range gone {
		c := m.txns[id]
		if c.ops.Load() > 0 {
			m.live.Add(-1)
		}
		delete(m.txns, id)
		c.ops.Store(0)
		c.shards.Store(0)
		c.committed = false
		m.free = append(m.free, c)
	}
	m.txnMu.Unlock()
	if len(gone) > 0 {
		m.reclaimedTxns.Add(int64(len(gone)))
		// gone is sorted, so its last element is the pass's highest
		// reclaimed id; Compact passes are serialized by compactMu, so
		// a plain max-update cannot race another writer.
		if hi := int64(gone[len(gone)-1]); hi > m.compactWM.Load() {
			m.compactWM.Store(hi)
		}
	}
	if m.sink != nil {
		// A sink may keep the list; the scratch is the next pass's.
		m.sink.LogCompact(slices.Clone(gone), m.CompactStats(), m.Ops())
	}
	return len(gone)
}

// LiveTxns returns the resident transaction count, mirroring
// Monitor.LiveTxns.
func (m *ShardedMonitor) LiveTxns() int {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.LiveTxns()
	}
	return int(m.live.Load())
}

// CompactStats snapshots the lifecycle counters: the sharded-level
// pass and reclamation counts plus the shards' summed reclaimed log
// entries.
func (m *ShardedMonitor) CompactStats() CompactStats {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.CompactStats()
	}
	st := CompactStats{
		Compactions:   int(m.compactions.Load()),
		ReclaimedTxns: int(m.reclaimedTxns.Load()),
		LiveTxns:      int(m.live.Load()),
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		st.ReclaimedOps += sh.mon.CompactStats().ReclaimedOps
		sh.mu.Unlock()
	}
	return st
}

// SetAutoCompact sets the automatic compaction threshold (a sharded
// Compact pass per n commits; n ≤ 0 disables) and returns the previous
// value.
func (m *ShardedMonitor) SetAutoCompact(n int) int {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.SetAutoCompact(n)
	}
	m.txnMu.Lock()
	defer m.txnMu.Unlock()
	old := m.autoEvery
	m.autoEvery = n
	return old
}

// Watermark returns the highest committed transaction id (0 before
// any commit). It is a high-watermark of commits: a transaction with
// a lower id may still be live when completion is not id-ordered, so
// it bounds where committed work has reached, not what has finished.
// Only a caller that commits in id order may read it as the classic
// everything-at-or-below-is-durable low-watermark — and only on a
// violation-free run: a Commit racing the first violation may advance
// the watermark even though the monitors discarded the mark, so after
// a violation the watermark is meaningless along with the rest of the
// frozen lifecycle state.
func (m *ShardedMonitor) Watermark() int { return int(m.watermark.Load()) }

// CompactWatermark returns the highest transaction id a Compact pass
// has physically reclaimed (0 before any reclamation), mirroring
// Monitor.CompactWatermark: under an id-ordered commit discipline it
// is the certifier's retention low-watermark, the anchor consumers
// such as the multiversion store's version GC advance their floor to.
func (m *ShardedMonitor) CompactWatermark() int {
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.mon.CompactWatermark()
	}
	return int(m.compactWM.Load())
}

// ConflictEdges returns conjunct e's current conflict edges as
// original transaction-id pairs, sorted, by delegating to the owning
// shard under its lock.
func (m *ShardedMonitor) ConflictEdges(e int) [][2]int {
	sh := m.shards[m.shardOf[e]]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mon.ConflictEdges(e - sh.lo)
}

// ObserveAll feeds a whole schedule one operation at a time through
// Observe; it returns the first violation or nil. The feed stops at the
// violating operation, like Monitor.ObserveAll.
func (m *ShardedMonitor) ObserveAll(s *txn.Schedule) *Violation {
	for _, o := range s.Ops() {
		if v := m.Observe(o); v != nil {
			return v
		}
	}
	return nil
}
