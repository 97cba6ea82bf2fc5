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
	if v := m.violation; v != nil {
		return false, v
	}
	if len(ops) == 0 {
		return true, nil
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
			return false, v
		}
	}
	return true, nil
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
