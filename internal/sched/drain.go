package sched

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
)

// DrainPolicy selects what Drain does with the transactions still live
// in the monitor when the drain begins. See Certify.Drain.
type DrainPolicy int

const (
	// DrainWait (the default) lets in-flight transactions run to
	// completion: the gate keeps granting their operations (and only
	// theirs) until the monitor's live set empties or the drain
	// context expires, at which point the unfinished remainder is
	// retracted and the drain returns a typed deadline error.
	DrainWait DrainPolicy = iota
	// DrainAbort retracts every in-flight transaction immediately —
	// the fast drain, trading their work for a prompt quiesce.
	DrainAbort
)

// SnapshotCutter is the optional Journal extension Drain uses to cut a
// final snapshot once the gate has quiesced: the log's recovery cost
// collapses to the snapshot alone. wal.Writer implements it.
type SnapshotCutter interface {
	// CutSnapshot forces a segment rotation whose snapshot captures
	// the journal's current replay state.
	CutSnapshot() error
}

// lifecycle is the admission posture a gate carries once Drain or
// Close has been called, shared by Certify and OptimisticCertify. All
// access runs under the owning gate's mutex.
type lifecycle struct {
	// draining: no new transactions; only the allowed set (live at
	// drain start) may still receive grants.
	draining bool
	// closed: no admissions of any kind; the terminal state.
	closed bool
	policy DrainPolicy
	// allowed holds the ids live at drain start under DrainWait;
	// retracted ids are removed so a retracted transaction cannot
	// sneak back in as a fresh admission.
	allowed map[int]bool
}

// blocked reports whether the lifecycle posture refuses txnID. Two
// bool tests in the common (running) case — cheap enough for the
// zero-alloc tick path.
func (lc *lifecycle) blocked(txnID int) bool {
	return lc.closed || (lc.draining && !lc.allowed[txnID])
}

// drainGate is the shared body of the gates' Drain: stop admitting new
// transactions, settle the in-flight ones per the drain policy, flush
// the journal barrier, run a final compact pass, and cut a snapshot.
// The gate mutex is released while waiting so the engine's tick loop
// (TxnFinished, Pick) can make progress; ctx bounds the whole
// sequence, and on expiry the unfinished remainder is retracted — the
// same monitor state a completed run that aborted them would leave —
// and the typed cancellation error is returned.
func drainGate(ctx context.Context, mu *sync.Mutex, memo *verdictMemo, jn *journaled, lc *lifecycle, tinj *tickInjector) error {
	mu.Lock()
	defer mu.Unlock()
	mon := memo.mon
	if lc.closed {
		return fmt.Errorf("sched: drain: %w", exec.ErrGateClosed)
	}
	live := mon.LiveTxnIDs()
	lc.draining = true
	lc.allowed = make(map[int]bool, len(live))
	for _, id := range live {
		lc.allowed[id] = true
	}
	// Only uncommitted residents are retractable: a committed
	// transaction stays resident until compaction reclaims it, and its
	// work is done, so it is neither waited on nor retracted.
	retract := func(ids []int) int {
		n := 0
		for _, id := range ids {
			if mon.CheckedRetract(id) != nil {
				continue // committed or violated: nothing to roll back
			}
			n++
			memo.settle(id)
			memo.global++ // it may hold operations no tick granted
			jn.ack()
			delete(lc.allowed, id)
		}
		return n
	}
	var drainErr error
	if lc.policy == DrainAbort {
		retract(mon.InFlightTxnIDs())
	} else {
		for {
			if err := exec.CancelError(ctx); err != nil {
				n := retract(mon.InFlightTxnIDs())
				drainErr = fmt.Errorf("sched: drain: %d in-flight transaction(s) retracted: %w", n, err)
				break
			}
			tinj.at(fault.OpDrain) // deterministic drain-step fault point
			if len(mon.InFlightTxnIDs()) == 0 {
				break
			}
			// Yield the gate so the engine can finish transactions.
			mu.Unlock()
			t := time.NewTimer(time.Millisecond)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
			mu.Lock()
		}
	}
	if err := jn.drainFlush(ctx, mu); err != nil && drainErr == nil {
		drainErr = err
	}
	mon.Compact()
	memo.global++
	jn.ack()
	if drainErr == nil && !jn.frozen() && jn.journal != nil {
		if cutter, ok := jn.journal.(SnapshotCutter); ok {
			if err := cutter.CutSnapshot(); err != nil {
				drainErr = fmt.Errorf("sched: drain: snapshot cut: %w", err)
			}
		}
	}
	return drainErr
}

// closeGate is the shared body of the gates' Close: latch the terminal
// posture and close the journal when it owns a Close. Close does not
// drain — call Drain first for a graceful quiesce; Close alone
// abandons in-flight transactions where they stand (the journal still
// holds their durable prefix, so recovery sees them as live and
// retractable).
func closeGate(mu *sync.Mutex, jn *journaled, lc *lifecycle) error {
	mu.Lock()
	defer mu.Unlock()
	if lc.closed {
		return nil
	}
	lc.closed = true
	lc.draining = true
	if cl, ok := jn.journal.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// The certification gates implement exec.Drainer and exec.Canceler.
var (
	_ exec.Drainer  = (*Certify)(nil)
	_ exec.Drainer  = (*OptimisticCertify)(nil)
	_ exec.Drainer  = (*ParallelCertify)(nil)
	_ exec.Canceler = (*Certify)(nil)
	_ exec.Canceler = (*OptimisticCertify)(nil)
)

// SetDrainPolicy selects what Drain does with in-flight transactions
// (default DrainWait). Call before Drain.
func (c *Certify) SetDrainPolicy(p DrainPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lc.policy = p
}

// Drain implements exec.Drainer on the blocking gate: refuse new
// transactions, settle in-flight ones per the drain policy (wait or
// abort), flush the journal, compact the monitor, and cut a final
// snapshot. ctx bounds the wait: on expiry the unfinished remainder
// is retracted and the returned error wraps exec.ErrDeadline or
// exec.ErrCanceled. Draining an already-closed gate returns
// exec.ErrGateClosed. The gate stays usable for reads (Health,
// Monitor) after a drain; call Close to release the journal.
func (c *Certify) Drain(ctx context.Context) error {
	return drainGate(ctx, &c.mu, &c.memo, &c.jn, &c.lc, &c.tinj)
}

// Close latches the terminal posture — every further admission is
// refused with exec.ErrGateClosed — and closes the attached journal
// when it has a Close. Idempotent. Close does not drain; call Drain
// first for a graceful quiesce.
func (c *Certify) Close() error {
	return closeGate(&c.mu, &c.jn, &c.lc)
}

// TxnCanceled implements exec.Canceler: a cancelled engine run aborts
// the attempt through the same retraction path a policy abort takes,
// so the monitor and journal end in the state a completed run that
// aborted the transaction would have left.
func (c *Certify) TxnCanceled(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mon.Retract(id)
	c.memo.settle(id)
	c.jn.ack()
	if cc, ok := c.Inner.(exec.Canceler); ok {
		cc.TxnCanceled(id, v)
	} else if ra, ok := c.Inner.(exec.Restarter); ok {
		ra.TxnAborted(id, v)
	}
}

// SetDrainPolicy selects what Drain does with in-flight transactions
// (default DrainWait). Call before Drain. ParallelCertify inherits.
func (c *OptimisticCertify) SetDrainPolicy(p DrainPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lc.policy = p
}

// Drain implements exec.Drainer on the abort-capable gate (and, by
// embedding, on ParallelCertify), with Certify.Drain's contract.
func (c *OptimisticCertify) Drain(ctx context.Context) error {
	return drainGate(ctx, &c.mu, &c.memo, &c.jn, &c.lc, &c.tinj)
}

// Close latches the terminal posture and closes the attached journal,
// with Certify.Close's contract. Idempotent.
func (c *OptimisticCertify) Close() error {
	return closeGate(&c.mu, &c.jn, &c.lc)
}

// TxnCanceled implements exec.Canceler: the cancelled attempt is
// retracted exactly as a sacrificed victim would be, and its
// per-transaction lifecycle state (abort counts, phase marks, solo
// escalation) is dropped — cancel equals abort, minus the restart.
func (c *OptimisticCertify) TxnCanceled(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mon.Retract(id)
	c.memo.settle(id)
	c.jn.ack()
	delete(c.aborts, id)
	delete(c.phase, id)
	if id == c.solo {
		c.solo = 0
	}
	if cc, ok := c.Inner.(exec.Canceler); ok {
		cc.TxnCanceled(id, v)
	} else if ra, ok := c.Inner.(exec.Restarter); ok {
		ra.TxnAborted(id, v)
	}
}
