package sched

import (
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Certify gates a policy behind the online PWSR certifier of
// internal/core: a pending operation is grantable only when the
// monitor's incremental conflict graphs say admitting it keeps every
// conjunct's projection conflict serializable. Each granted operation
// is fed back into the monitor, so the recorded schedule is PWSR by
// construction — this is the paper's certification-scheduler reading
// of Definition 2, and the consumer the Monitor's Admissible preflight
// exists for.
//
// Certify is the blocking (pessimistic) reading: a transaction whose
// next operation would close a conflict cycle stays blocked, and if
// every pending request is inadmissible the run stalls (exec.ErrStall),
// the certification analogue of the delayed-read gate's deadlock.
// OptimisticCertify is the abort-capable reading that resolves such
// stalls by sacrificing a victim.
type Certify struct {
	gate
}

// NewCertify returns a certifying gate over the conjunct partition
// wrapping the inner policy.
func NewCertify(partition []state.ItemSet, inner exec.Policy) *Certify {
	return NewCertifyOver(core.NewMonitor(partition), inner)
}

// Pick implements exec.Policy: filter the pending requests through the
// certifier, let the inner policy choose among the admissible ones, and
// commit the choice to the monitor. A request denied on a previous tick
// keeps its memoized verdict until something moves in its item's
// conjuncts, so the steady-state tick costs integer compares rather
// than reachability searches.
func (c *Certify) Pick(pending []*exec.Request, v *exec.View) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pick(pending, v, 0, false)
}

// TxnFinished implements exec.Policy: the finished transaction is
// committed to the certifier, which may then reclaim it.
func (c *Certify) TxnFinished(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finish(id, v)
}

// TxnCanceled implements exec.Gate: a cancelled or failed engine run aborts
// the attempt through the same retraction path a policy abort takes,
// so the monitor and journal end in the state a completed run that
// aborted the transaction would have left.
func (c *Certify) TxnCanceled(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retract(id)
}

// requestOp views a pending request as an operation for the monitor,
// which ignores values and positions.
func requestOp(r *exec.Request) txn.Op {
	return txn.Op{Txn: r.TxnID, Action: r.Action, Entity: r.Entity, Value: r.Value, Pos: -1}
}
