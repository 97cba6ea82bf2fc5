package core

import "pwsr/internal/txn"

// EventKind tags one entry of a monitor's lifecycle stream.
type EventKind uint8

const (
	// EventObserve is one admitted operation (Observe).
	EventObserve EventKind = iota + 1
	// EventCommit marks a transaction finished (Commit).
	EventCommit
	// EventRetract rolls a transaction's operations back out (Retract).
	EventRetract
	// EventCompact is one low-watermark reclamation pass (Compact).
	EventCompact
)

// String renders the kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventObserve:
		return "observe"
	case EventCommit:
		return "commit"
	case EventRetract:
		return "retract"
	case EventCompact:
		return "compact"
	default:
		return "event(?)"
	}
}

// Event is one entry of the Observe/Commit/Retract/Compact lifecycle
// stream — the exact input sequence that, replayed against a fresh
// monitor over the same partition, rebuilds identical verdict state
// (see Recover). Op is meaningful for EventObserve; Txn for
// EventCommit and EventRetract; EventCompact carries neither (the
// reclamation set is a deterministic function of the state the prefix
// built).
type Event struct {
	Kind EventKind
	Op   txn.Op
	Txn  int
}

// LifecycleSink observes a monitor's lifecycle stream as it is
// applied: every effective Observe, Commit, Retract, and Compact is
// reported, in application order, after the monitor's own state has
// moved. A durability layer (internal/wal) implements the sink to
// persist the stream; Recover re-emits the replayed stream through a
// sink so such a layer can rebuild its snapshot bookkeeping.
//
// Contract: calls arrive on the feeding goroutine, and a sinked
// monitor must be fed from a single goroutine at a time — the sink
// sees the stream in the order the monitor applied it only because
// the feed itself is serialized. (Every sched gate feeds its
// certifier from the engine's scheduling loop, which satisfies this.)
//
// Calls the monitor rejects by panic (operations for committed
// transactions, retractions of committed transactions or on a
// violated monitor — see LifecycleError) are not reported: the sink
// records what happened, not what was attempted.
type LifecycleSink interface {
	// LogObserve reports one admitted operation (including
	// post-violation observations, which the sticky monitor counts but
	// no longer certifies).
	LogObserve(o txn.Op)
	// LogCommit reports one effective commit (double commits and
	// post-violation commits are no-ops and are not reported).
	LogCommit(txnID int)
	// LogRetract reports one retraction of a transaction the monitor
	// had seen.
	LogRetract(txnID int)
	// LogCompact reports one completed compaction pass: the original
	// ids of the transactions fully reclaimed by this pass (nil when
	// none), the cumulative lifecycle counters after the pass, and the
	// surviving operation count — everything a snapshotting durability
	// layer needs to cut a recovery baseline at the low watermark.
	LogCompact(reclaimed []int, stats CompactStats, ops int)
}

// SetSink attaches (or, with nil, detaches) the monitor's lifecycle
// sink and returns the previous one. Attach before feeding traffic; the
// sink is consulted on the feeding goroutine.
func (m *Monitor) SetSink(s LifecycleSink) LifecycleSink {
	old := m.sink
	m.sink = s
	return old
}

// Sink returns the attached lifecycle sink, or nil.
func (m *Monitor) Sink() LifecycleSink { return m.sink }
