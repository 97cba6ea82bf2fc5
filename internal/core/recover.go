package core

import (
	"fmt"
	"slices"

	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// LifecycleError is the typed form of the monitor's lifecycle-contract
// violations: an operation for a committed transaction, a retraction
// of a committed transaction, or a retraction on a violated monitor.
// The plain Observe/Retract entry points panic with a *LifecycleError
// (the contracts guard internal invariants, and a live gate breaking
// them is a programming error); the Checked* entry points return it
// instead, which is what lets a recovering gate reject a malformed
// log record without crashing (see Recover and internal/wal).
type LifecycleError struct {
	// Verb is the lifecycle call that was rejected ("Observe",
	// "Retract").
	Verb string
	// Txn is the original id of the offending transaction.
	Txn int
	// Reason describes the broken contract.
	Reason string
}

// Error implements the error interface.
func (e *LifecycleError) Error() string {
	return fmt.Sprintf("core: %s of transaction T%d: %s", e.Verb, e.Txn, e.Reason)
}

// CheckedObserve is Observe with the op-after-commit contract
// surfaced as a typed error instead of a panic: if the transaction
// was already committed the operation is rejected, the monitor is
// untouched, and a *LifecycleError is returned. Otherwise it behaves
// exactly like Observe (the returned violation, if any, is the
// monitor's sticky verdict, not an error).
func (m *Monitor) CheckedObserve(o txn.Op) (*Violation, error) {
	if d, ok := m.txnLookup(o.Txn); ok && m.committedB[d] {
		return nil, &LifecycleError{Verb: "Observe", Txn: o.Txn, Reason: "operation for a committed transaction"}
	}
	return m.observe(&o), nil
}

// CheckedRetract is Retract with its contracts surfaced as typed
// errors instead of panics: retracting on a violated monitor or
// retracting a committed transaction returns a *LifecycleError and
// leaves the monitor untouched. Retracting an unseen transaction
// remains a no-op.
func (m *Monitor) CheckedRetract(txnID int) error {
	if m.violation != nil {
		return &LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction on a violated monitor"}
	}
	if d, ok := m.txnLookup(txnID); ok && m.committedB[d] {
		return &LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction of a committed transaction"}
	}
	m.Retract(txnID)
	return nil
}

// CheckedCommit is Commit for symmetry with the other Checked entry
// points. Commit is deliberately total — double commits and
// post-violation commits are no-ops, unseen commits are permitted —
// so it never returns an error today; the signature exists so the
// Certifier boundary is uniformly checkable.
func (m *Monitor) CheckedCommit(txnID int) error {
	m.Commit(txnID)
	return nil
}

// LiveTxnIDs returns the original ids of the resident transactions,
// sorted. Inspection-only (it allocates); the crash differential uses
// it to compare live-transaction sets.
func (m *Monitor) LiveTxnIDs() []int {
	out := make([]int, 0, m.liveTxns)
	for d := int32(0); int(d) < m.txns.Len(); d++ {
		if m.resident[d] {
			out = append(out, m.txns.Orig(d))
		}
	}
	slices.Sort(out)
	return out
}

// InFlightTxnIDs returns the original ids of the resident transactions
// that have not committed, sorted. Residency alone (LiveTxnIDs) is not
// in-flight: a committed transaction stays resident until a Compact
// reclaims it, but its work is done. A drain waits on — or retracts —
// exactly this set.
func (m *Monitor) InFlightTxnIDs() []int {
	out := make([]int, 0, m.liveTxns)
	for d := int32(0); int(d) < m.txns.Len(); d++ {
		if m.resident[d] && !m.committedB[d] {
			out = append(out, m.txns.Orig(d))
		}
	}
	slices.Sort(out)
	return out
}

// Snapshot is the recovery baseline a durability layer cuts at a
// compaction boundary: the monitor's surviving lifecycle stream (the
// observations and commits of every still-resident transaction, in
// original application order) plus the cumulative counters the
// surviving stream cannot re-derive. Replaying Events against a fresh
// monitor reconstructs the post-compaction state exactly — the same
// rebuild-from-surviving-history equivalence the compaction soundness
// argument proves (see Compact and the package comment) — and the
// counters are then restored on top.
type Snapshot struct {
	// Events is the surviving lifecycle stream: EventObserve and
	// EventCommit entries only (retracted and reclaimed transactions
	// have no surviving events by construction).
	Events []Event
	// Ops is the monitor's surviving operation count at the cut.
	// Replay recomputes it, but carrying it makes the restored counter
	// independently checkable.
	Ops int
	// Compactions, ReclaimedTxns, ReclaimedOps are the cumulative
	// lifecycle counters at the cut; the surviving stream has no
	// record of reclaimed state, so they must be carried.
	Compactions   int
	ReclaimedTxns int
	ReclaimedOps  int
}

// apply replays one lifecycle event through the checked entry points.
// A violation surfacing during replay is not an error — it is the
// sticky verdict being faithfully rebuilt.
func (m *Monitor) apply(ev Event) error {
	switch ev.Kind {
	case EventObserve:
		_, err := m.CheckedObserve(ev.Op)
		return err
	case EventCommit:
		return m.CheckedCommit(ev.Txn)
	case EventRetract:
		return m.CheckedRetract(ev.Txn)
	case EventCompact:
		m.Compact()
		return nil
	default:
		return fmt.Errorf("core: unknown lifecycle event kind %d", ev.Kind)
	}
}

// Recover rebuilds a monitor from a durability layer's recovery
// baseline: a fresh monitor over the partition replays the snapshot's
// surviving stream, restores the snapshot's cumulative counters, and
// then replays the logged suffix. The result is verdict-identical to
// the monitor that produced the stream — same admissibility answers,
// same conflict edges, same sticky violation (cycle witness
// included), same live-transaction set and lifecycle counters — which
// is what lets a restarted admission server resume certification
// exactly where the crashed one stopped (internal/wal's crash-point
// differential asserts this at every log prefix).
//
// Automatic compaction is disabled during replay: compaction passes
// are replayed exactly where the original stream ran them
// (EventCompact), never re-triggered on the replay's own cadence. The
// recovered monitor is returned with the default cadence restored —
// the cadence is configuration, not recovered state.
//
// A malformed stream — an event the lifecycle contract rejects, or an
// unknown kind — aborts recovery with the typed error, positioned; a
// violation replayed from the stream is not malformed (the sticky
// verdict is recovered state). snap may be nil (recovery from a
// genesis log). sink, when non-nil, observes the replayed stream
// exactly as a live sink would (the durability layer uses this to
// rebuild its own snapshot bookkeeping); it is detached before the
// monitor is returned.
func Recover(partition []state.ItemSet, snap *Snapshot, log []Event, sink LifecycleSink) (*Monitor, error) {
	m := NewMonitor(partition)
	m.SetAutoCompact(0)
	m.sink = sink
	if snap != nil {
		for i, ev := range snap.Events {
			if ev.Kind == EventCompact || ev.Kind == EventRetract {
				return nil, fmt.Errorf("core: snapshot event %d: %s events cannot appear in a surviving stream", i, ev.Kind)
			}
			if err := m.apply(ev); err != nil {
				return nil, fmt.Errorf("core: snapshot event %d: %w", i, err)
			}
		}
		// A violation tripping during snapshot replay is legitimate: a
		// baseline snapshot cut over a violated monitor (wal.Resume after
		// recovering a violated log) carries the surviving stream that
		// reproduces the sticky verdict. Recovery of a violated state
		// admits nothing, so even a corrupt snapshot that manufactured a
		// violation would only fail safe.
		//
		// Normalize with one compaction pass before restoring counters.
		// Per-graph compaction is finer than the per-transaction
		// surviving stream: a committed transaction may already be
		// reclaimed from one conjunct's graph while its live ancestors in
		// another keep it resident, and the replay above reinserted those
		// already-reclaimed operations. The pass removes exactly what the
		// original monitor had removed by the cut — the removal condition
		// ("committed with no live ancestors") is stable once true, since
		// a committed transaction acquires no new operations and hence no
		// new inbound edges — and the counter side effects are overwritten
		// by the snapshot's counter block below. (After a violation the
		// pass is a no-op, matching the original's frozen graphs up to
		// nodes that can no longer influence any verdict.)
		sink := m.sink
		m.sink = nil
		m.Compact()
		m.sink = sink
		m.ops = snap.Ops
		m.compactions = snap.Compactions
		m.reclaimedTxns = snap.ReclaimedTxns
		m.reclaimedOps = snap.ReclaimedOps
	}
	for i, ev := range log {
		if err := m.apply(ev); err != nil {
			return nil, fmt.Errorf("core: log event %d: %w", i, err)
		}
	}
	m.sink = nil
	m.SetAutoCompact(DefaultAutoCompactEvery)
	return m, nil
}
