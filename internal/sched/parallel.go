package sched

import (
	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Certifier abstracts the online PWSR monitor the certification gate
// consults; core.Monitor implements it.
type Certifier interface {
	// Observe admits one operation, returning the sticky first
	// violation.
	Observe(o txn.Op) *core.Violation
	// Admissible reports whether admitting o now would keep every
	// conjunct's projection serializable, without recording it.
	Admissible(o txn.Op) bool
	// AdmitSequence admits one fresh transaction's whole operation
	// sequence, which cannot be denied: false comes only with a
	// violation (see core.Monitor.AdmitSequence for the contract and
	// the commit-order serial-equivalence argument).
	AdmitSequence(ops []txn.Op) (bool, *core.Violation)
	// Retract rolls every observed operation of the transaction out of
	// certification state.
	Retract(txnID int)
	// Commit marks the transaction finished: no further operations, no
	// retraction, eligible for compaction.
	Commit(txnID int)
	// Compact physically reclaims committed transactions no future
	// cycle can reach, returning how many were removed.
	Compact() int
	// CompactStats snapshots the lifecycle counters.
	CompactStats() core.CompactStats
	// CompactWatermark returns the highest transaction id a Compact
	// pass has physically reclaimed (0 before any) — the certifier's
	// retention low-watermark under an id-ordered commit discipline
	// (see core.Monitor.CompactWatermark).
	CompactWatermark() int
	// SetAutoCompact sets the automatic compaction threshold (passes
	// per n commits; n ≤ 0 disables), returning the previous value.
	// Kept for benchmark/pipeline.go:56 until ROADMAP item 8.
	SetAutoCompact(n int) int
	// Partition returns the conjunct partition certified over; the gate
	// learns from it which conjuncts an item's verdicts depend on.
	Partition() []state.ItemSet
	// ProbeStats is kept for benchmark/pipeline.go:179 until ROADMAP
	// item 8; always zero.
	ProbeStats() core.ProbeStats
	// Violation returns the sticky first violation, or nil; a violated
	// certifier retracts nothing, so Drain checks it first.
	Violation() *core.Violation
	// PWSR and Ops are kept for benchmark/run.go:384 and :466 until
	// ROADMAP item 8. PWSR reports whether everything observed so far
	// is PWSR, and Ops the number of surviving observed operations.
	PWSR() bool
	Ops() int
	// SetSink installs the lifecycle sink receiving every applied
	// event (the write-ahead journal hook), returning the previous
	// sink.
	SetSink(s core.LifecycleSink) core.LifecycleSink
	// LiveTxnIDs returns the sorted ids of the monitor-resident
	// transactions — committed-but-unreclaimed ones included, since
	// residency lasts until a compaction pass reclaims them.
	LiveTxnIDs() []int
	// InFlightTxnIDs returns the sorted ids of the resident
	// transactions not yet committed — the set a drain waits on.
	InFlightTxnIDs() []int
}

var _ Certifier = (*core.Monitor)(nil)
