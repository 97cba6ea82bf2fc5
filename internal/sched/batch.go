package sched

import (
	"fmt"

	"pwsr/internal/exec"
	"pwsr/internal/txn"
)

// AdmitTxn implements exec.BatchGate: certify and commit one finished
// transaction's whole operation sequence atomically, barriering the
// journal (when one is attached) before acknowledging — the same
// write-ahead discipline the tick path applies per grant. The sequence
// must follow core.Monitor.AdmitSequence's fresh-transaction contract;
// under it a denial cannot arise, so a non-nil error means a closed or
// draining gate, a violated certifier or a journal fail-stop. The
// sequence names no conjunct to the memo, so it moves the global epoch.
// The gate mutex serializes admissions with the tick path; a
// ParallelEngine's commit pipeline is itself serial, so the lock adds
// no contention there.
func (g *OptimisticCertify) AdmitTxn(ops []txn.Op) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lc.closed {
		return fmt.Errorf("sched: batch admission refused: %w", exec.ErrGateClosed)
	}
	if g.lc.draining {
		// A batch admission is by contract a fresh transaction, so it
		// can never be in the drain-start allowed set.
		return fmt.Errorf("sched: batch admission refused: %w", exec.ErrDraining)
	}
	if g.jn.frozen() {
		return fmt.Errorf("sched: batch admission refused: %w", g.jn.refusalErr())
	}
	if len(ops) == 0 {
		return nil
	}
	g.memo.global++
	if _, v := g.memo.mon.AdmitSequence(ops); v != nil {
		return fmt.Errorf("sched: batch admission on a violated certifier: %v", v)
	}
	g.memo.mon.Commit(ops[0].Txn)
	if !g.jn.ack() {
		return fmt.Errorf("sched: batch admission not durable: %w", g.jn.refusalErr())
	}
	return nil
}
