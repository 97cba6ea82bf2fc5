package sched

import (
	"context"
	"fmt"
	"time"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
)

// lifecycle is the admission posture a gate carries once Drain or
// Close has been called. All access runs under the gate's mutex.
type lifecycle struct {
	// draining: no new transactions; only the allowed set (live at
	// drain start) may still receive grants.
	draining bool
	// closed: no admissions of any kind; the terminal state.
	closed bool
	// allowed holds the ids live at drain start; retracted ids are
	// removed so a retracted transaction cannot sneak back in as a
	// fresh admission.
	allowed map[int]bool
}

// blocked reports whether the lifecycle posture refuses txnID. Two
// bool tests in the common (running) case — cheap enough for the
// zero-alloc tick path.
func (lc *lifecycle) blocked(txnID int) bool {
	return lc.closed || (lc.draining && !lc.allowed[txnID])
}

// Drain implements exec.Gate: refuse new transactions, wait for the
// in-flight ones to settle, flush the journal barrier, run a final
// compact pass, and cut a snapshot. A journal that refuses any record,
// the compact pass's or the snapshot cut's included, latches the
// gate's fail-stop and fails the drain with exec.ErrJournalDown; after
// a refused record no snapshot is cut. The gate mutex is released
// while waiting so the engine's tick loop (TxnFinished, Pick) can make
// progress. ctx bounds the whole sequence: when it ends the unfinished
// remainder is retracted — the same monitor state a completed run that
// aborted them would leave — and the returned error wraps
// exec.ErrDeadline or exec.ErrCanceled, so a drain under an
// already-cancelled ctx retracts every in-flight transaction at once.
// Draining an already-closed gate returns exec.ErrGateClosed. The gate
// stays usable for reads (Health, Monitor) after a drain; call Close
// to release the journal.
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
	// go as a cancelled run's do once ctx ends.
	var drainErr error
	for {
		if err := exec.CancelError(ctx); err != nil {
			var ids []int
			if mon.Violation() == nil { // a violated certifier rolls nothing back
				ids = mon.InFlightTxnIDs()
			}
			for _, id := range ids {
				g.cancel(id)
				delete(g.lc.allowed, id)
			}
			drainErr = fmt.Errorf("sched: drain: %d in-flight transaction(s) retracted: %w", len(ids), err)
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
	// One ack after the final compact pass covers every record before
	// it too: the journal's barrier error is sticky. A failed cut
	// latches like any other refused record.
	mon.Compact()
	g.memo.global++ // covers the compact pass and any retraction above
	if g.jn.ack() && drainErr == nil && g.jn.journal != nil {
		g.jn.jerr = g.jn.journal.CutSnapshot()
	}
	if g.jn.frozen() && drainErr == nil {
		drainErr = fmt.Errorf("sched: drain: %w", g.jn.refusalErr())
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
