package sched

import (
	"context"
	"fmt"

	"pwsr/internal/exec"
	"pwsr/internal/txn"
)

// The certification gates implement exec.BatchGate: whole-transaction
// admission for the block-parallel batch executor.
var (
	_ exec.BatchGate = (*Certify)(nil)
	_ exec.BatchGate = (*OptimisticCertify)(nil)
	_ exec.BatchGate = (*ParallelCertify)(nil)
)

// admitTxn is the shared body of the gates' AdmitTxn: admit the whole
// sequence, then commit the transaction, barriering the journal (when
// one is attached) before acknowledging — the same write-ahead
// discipline the tick path applies per grant. A fresh transaction's
// sequence cannot be denied (core.Monitor.AdmitSequence), so the only
// refusal the certifier can give is a violation. The sequence names no
// conjunct to the memo, so it moves the global epoch.
func admitTxn(memo *verdictMemo, jn *journaled, lc *lifecycle, ops []txn.Op) error {
	mon := memo.mon
	if lc.closed {
		return fmt.Errorf("sched: batch admission refused: %w", exec.ErrGateClosed)
	}
	if lc.draining {
		// A batch admission is by contract a fresh transaction, so it
		// can never be in the drain-start allowed set.
		return fmt.Errorf("sched: batch admission refused: %w", exec.ErrDraining)
	}
	if jn.frozen() {
		return fmt.Errorf("sched: batch admission refused: %w", jn.refusalErr())
	}
	if len(ops) == 0 {
		return nil
	}
	memo.global++
	if _, v := mon.AdmitSequence(ops); v != nil {
		return fmt.Errorf("sched: batch admission on a violated certifier: %v", v)
	}
	mon.Commit(ops[0].Txn)
	if !jn.ack() {
		return fmt.Errorf("sched: batch admission not durable: %w", jn.refusalErr())
	}
	return nil
}

// AdmitTxn implements exec.BatchGate on the blocking gate: certify and
// commit one finished transaction's whole operation sequence
// atomically. The sequence must follow core.Monitor.AdmitSequence's
// fresh-transaction contract; under it a denial cannot arise, so a
// non-nil error means a closed or draining gate, a violated certifier
// or a journal fail-stop.
func (c *Certify) AdmitTxn(ops []txn.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return admitTxn(&c.memo, &c.jn, &c.lc, ops)
}

// AdmitTxnCtx is AdmitTxn bounded by a context: a cancelled or expired
// ctx refuses the admission with the typed exec.ErrCanceled /
// exec.ErrDeadline before the certifier or journal is touched — a
// refused admission leaves no trace, so cancellation here can never
// produce a partial grant or an un-journaled one.
func (c *Certify) AdmitTxnCtx(ctx context.Context, ops []txn.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := exec.CancelError(ctx); err != nil {
		return err
	}
	return admitTxn(&c.memo, &c.jn, &c.lc, ops)
}

// AdmitTxn implements exec.BatchGate on the abort-capable gate (and,
// by embedding, on ParallelCertify): certify and commit one finished
// transaction's whole operation sequence atomically, with
// Certify.AdmitTxn's contract. The gate mutex serializes admissions
// with the tick path; a ParallelEngine's commit pipeline is itself
// serial, so the lock adds no contention there.
func (c *OptimisticCertify) AdmitTxn(ops []txn.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return admitTxn(&c.memo, &c.jn, &c.lc, ops)
}

// AdmitTxnCtx is AdmitTxn bounded by a context, with
// Certify.AdmitTxnCtx's contract (and, by embedding, ParallelCertify's
// batch admissions inherit it).
func (c *OptimisticCertify) AdmitTxnCtx(ctx context.Context, ops []txn.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := exec.CancelError(ctx); err != nil {
		return err
	}
	return admitTxn(&c.memo, &c.jn, &c.lc, ops)
}
