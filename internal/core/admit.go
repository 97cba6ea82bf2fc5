package core

import "pwsr/internal/txn"

// AdmitSequence admits one fresh transaction's whole operation
// sequence: it checks the fresh-transaction contract and observes the
// operations in order. It returns (true, nil) with every operation
// resident; it returns false only with a violation, which is Observe's
// sticky one.
//
// Nothing is probed first and nothing is ever rolled back, because a
// fresh transaction admitted whole cannot close a cycle. Conflict
// edges are only ever drawn INTO the transaction performing the new
// operation (from the item frontier to the operating transaction — the
// same observation that makes Compact sound). A transaction holding no
// observed operation has no outgoing edge, so while its own sequence is
// observed it gains incoming edges only, and no cycle through it can
// close in any conjunct's projection (Definition 2). Equivalently,
// admitting whole transactions one at a time in commit order produces
// a schedule conflict-equivalent to that serial order, and every
// conjunct projection of a serial schedule is serializable — the
// theorem that makes the batch executor's combined schedule PWSR by
// construction. TestFreshSequenceNeverDenied probes every operation of
// random fresh sequences with Admissible, over states mixed with
// in-flight per-operation traffic, and finds none denied. Were the
// argument ever wrong, the cycle would still surface as Observe's
// sticky violation. A transaction's first operation in a conjunct also
// puts its node at the top of that graph's Pearce–Kelly order
// (incGraph.node), so the edges into it need no search.
//
// This is the admission primitive of the block-parallel batch executor
// (exec.ParallelEngine via sched gates): a transaction whose program
// already ran to completion submits its full operation sequence at
// commit time.
//
// Contract: all operations must belong to one transaction, and that
// transaction must be fresh — not committed and holding no surviving
// observed operations. Violating either is a lifecycle panic, mirroring
// Observe/Retract. The lifecycle sink sees one LogObserve per observed
// operation. On a violated monitor the sticky verdict is returned and
// nothing is observed.
func (m *Monitor) AdmitSequence(ops []txn.Op) (bool, *Violation) {
	_, v := m.admitSequence(ops)
	return v == nil, v
}

// admitSequence is the body of AdmitSequence, also reporting how many
// operations were observed (all of them or, on a violation, the prefix
// through the violating one) so ShardedMonitor's single-shard path can
// count them.
func (m *Monitor) admitSequence(ops []txn.Op) (applied int, v *Violation) {
	if v := m.violation; v != nil {
		return 0, v
	}
	if len(ops) == 0 {
		return 0, nil
	}
	id := sequenceTxn(ops)
	if d, seen := m.txnLookup(id); seen {
		if m.committedB[d] {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "operation for a committed transaction"})
		}
		if m.resident[d] {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "transaction already holds observed operations"})
		}
	}
	for i := range ops {
		if v := m.observe(&ops[i]); v != nil {
			return i + 1, v
		}
	}
	return len(ops), nil
}

// sequenceTxn returns the transaction of a non-empty sequence, and
// raises the lifecycle error of a sequence that mixes transactions.
func sequenceTxn(ops []txn.Op) int {
	id := ops[0].Txn
	for i := range ops[1:] {
		if ops[i+1].Txn != id {
			panic(&LifecycleError{Verb: "AdmitSequence", Txn: ops[i+1].Txn, Reason: "sequence mixes transactions"})
		}
	}
	return id
}

// AdmitSequence admits one fresh transaction's whole operation sequence
// with Monitor.AdmitSequence's contract, safe for concurrent callers —
// and cheaper than an Observe loop through the public entry point: one
// transaction-table visit checks the fresh-transaction contract and
// opens the entry, the routes of all operations are resolved, then the
// union of routed shards is locked once in ascending order for the
// whole sequence (one lock round per shard per transaction instead of
// per operation), and the observe loop runs against the already-locked
// shards. The cost is the sequence's footprint — its operations and the
// shards they route to — whatever the shard count and however many
// transactions are live. Sequences routed to disjoint shard sets
// certify fully in parallel; the ascending lock order makes overlapping
// unions deadlock-free against each other and against the single-lock
// paths.
func (m *ShardedMonitor) AdmitSequence(ops []txn.Op) (bool, *Violation) {
	if v := m.violation.Load(); v != nil {
		return false, v
	}
	if len(ops) == 0 {
		return true, nil
	}
	if m.single {
		sh := m.shards[0]
		sh.mu.Lock()
		_, v := sh.mon.admitSequence(ops)
		sh.mu.Unlock()
		if v != nil {
			return false, m.globalViolation(sh, v)
		}
		return true, nil
	}

	id := sequenceTxn(ops)
	c := m.openTxn("AdmitSequence", id)
	if c.ops.Load() > 0 {
		panic(&LifecycleError{Verb: "AdmitSequence", Txn: id, Reason: "transaction already holds observed operations"})
	}

	// Resolve every operation's route before taking any shard lock
	// (routing may take routeMu on first sight of an entity); their
	// union is the sequence's footprint.
	var buf [8]shardSet
	routes := buf[:0]
	var union shardSet
	for _, o := range ops {
		r := m.routeFor(o.Entity)
		routes = append(routes, r)
		union |= r
	}
	for r := union; r != 0; r &= r - 1 {
		m.shards[r.lowest()].mu.Lock()
	}
	// observed is the set of shards holding an observed operation of
	// this transaction: the shards a later Commit must reach.
	var observed shardSet
	applied := 0
	var vio *Violation
	var vsh *monitorShard
admit:
	for i := range ops {
		observed |= routes[i]
		applied++
		for r := routes[i]; r != 0; r &= r - 1 {
			sh := m.shards[r.lowest()]
			if v := sh.mon.observe(&ops[i]); v != nil {
				vio, vsh = v, sh
				break admit
			}
		}
	}
	for r := union; r != 0; r &= r - 1 {
		m.shards[r.lowest()].mu.Unlock()
	}

	// The whole sequence or, on a violation, the observed prefix up to
	// and including the violating operation, like Observe.
	m.count(c, applied, observed)
	if m.sink != nil {
		for _, o := range ops[:applied] {
			m.sink.LogObserve(o)
		}
	}
	if vio != nil {
		return false, m.globalViolation(vsh, vio)
	}
	return true, nil
}
