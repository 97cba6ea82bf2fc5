package sched

import (
	"context"
	"fmt"
	"time"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
)

// DrainPolicy selects what Drain does with the transactions still live
// in the monitor when the drain begins. See the gate's Drain.
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

// lifecycle is the admission posture a gate carries once Drain or
// Close has been called. All access runs under the gate's mutex.
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

// SetDrainPolicy selects what Drain does with in-flight transactions
// (default DrainWait). Call before Drain.
func (g *OptimisticCertify) SetDrainPolicy(p DrainPolicy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lc.policy = p
}

// Drain implements exec.Gate: refuse new transactions, settle the
// in-flight ones per the drain policy (wait or abort), flush the
// journal barrier, run a final compact pass, and cut a snapshot. The
// gate mutex is released while waiting so the engine's tick loop
// (TxnFinished, Pick) can make progress. ctx bounds the whole sequence:
// on expiry the unfinished remainder is retracted — the same monitor
// state a completed run that aborted them would leave — and the
// returned error wraps exec.ErrDeadline or exec.ErrCanceled. Draining
// an already-closed gate returns exec.ErrGateClosed. The gate stays
// usable for reads (Health, Monitor) after a drain; call Close to
// release the journal.
func (g *OptimisticCertify) Drain(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	mon := g.memo.mon
	if g.lc.closed {
		return fmt.Errorf("sched: drain: %w", exec.ErrGateClosed)
	}
	live := mon.LiveTxnIDs()
	g.lc.draining = true
	g.lc.allowed = make(map[int]bool, len(live))
	for _, id := range live {
		g.lc.allowed[id] = true
	}
	// Only uncommitted residents are retractable: a committed
	// transaction stays resident until compaction reclaims it, and its
	// work is done, so it is neither waited on nor retracted. The rest
	// go as a cancelled run's do.
	retract := func(ids []int) int {
		if mon.Violation() != nil {
			return 0 // a violated certifier rolls nothing back
		}
		for _, id := range ids {
			g.cancel(id)
			delete(g.lc.allowed, id)
		}
		g.memo.global++ // they may hold operations no tick granted
		return len(ids)
	}
	var drainErr error
	if g.lc.policy == DrainAbort {
		retract(mon.InFlightTxnIDs())
	} else {
		for {
			if err := exec.CancelError(ctx); err != nil {
				n := retract(mon.InFlightTxnIDs())
				drainErr = fmt.Errorf("sched: drain: %d in-flight transaction(s) retracted: %w", n, err)
				break
			}
			g.tinj.at(fault.OpDrain) // deterministic drain-step fault point
			if len(mon.InFlightTxnIDs()) == 0 {
				break
			}
			// Yield the gate so the engine can finish transactions.
			g.mu.Unlock()
			t := time.NewTimer(time.Millisecond)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
			g.mu.Lock()
		}
	}
	if err := g.jn.drainFlush(ctx, &g.mu); err != nil && drainErr == nil {
		drainErr = err
	}
	mon.Compact()
	g.memo.global++
	g.jn.ack()
	if drainErr == nil && !g.jn.frozen() && g.jn.journal != nil {
		if err := g.jn.journal.CutSnapshot(); err != nil {
			drainErr = fmt.Errorf("sched: drain: snapshot cut: %w", err)
		}
	}
	return drainErr
}

// Close latches the terminal posture — every further admission is
// refused with exec.ErrGateClosed — and closes the attached journal.
// Idempotent. Close does not drain — call Drain first for a graceful
// quiesce; Close alone abandons in-flight transactions where they stand
// (the journal still holds their durable prefix, so recovery sees them
// as live and retractable).
func (g *OptimisticCertify) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lc.closed {
		return nil
	}
	g.lc.closed = true
	g.lc.draining = true
	if g.jn.journal == nil {
		return nil
	}
	return g.jn.journal.Close()
}
