package sched

import (
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Certifier abstracts the online PWSR monitor a certification gate
// consults: core.Monitor (the single-goroutine certifier) and
// core.ShardedMonitor (the concurrent, sharded one) both satisfy it.
type Certifier interface {
	// Observe admits one operation, returning the sticky first
	// violation.
	Observe(o txn.Op) *core.Violation
	// Admissible reports whether admitting o now would keep every
	// conjunct's projection serializable, without recording it.
	Admissible(o txn.Op) bool
	// AdmitSequence atomically admits one fresh transaction's whole
	// operation sequence — all observed or none (see
	// core.Monitor.AdmitSequence for the contract and the
	// commit-order serial-equivalence argument).
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
	SetAutoCompact(n int) int
	// Partition returns the conjunct partition certified over; the gates
	// learn from it which conjuncts an item's verdicts depend on.
	Partition() []state.ItemSet
	// ProbeStats snapshots the Admissible probe-cache counters.
	ProbeStats() core.ProbeStats
	// SetProbeCache enables or disables the Admissible probe cache,
	// returning the previous setting (the cached and uncached paths
	// are verdict-identical; the switch exists for differentials and
	// measurement).
	SetProbeCache(on bool) bool
	// PWSR reports whether everything observed so far is PWSR.
	PWSR() bool
	// Violation returns the first violation, or nil.
	Violation() *core.Violation
	// Ops returns the number of surviving observed operations.
	Ops() int
	// ConflictEdges returns conjunct e's conflict edges, sorted.
	ConflictEdges(e int) [][2]int
	// SetSink installs the lifecycle sink receiving every applied
	// event (the write-ahead journal hook), returning the previous
	// sink.
	SetSink(s core.LifecycleSink) core.LifecycleSink
	// CheckedObserve is Observe with lifecycle-contract panics
	// converted to errors — the replay-facing entry point: a malformed
	// log record surfaces as a typed error a recovering gate can
	// reject instead of crashing on.
	CheckedObserve(o txn.Op) (*core.Violation, error)
	// CheckedRetract is Retract with contract panics as errors.
	CheckedRetract(txnID int) error
	// CheckedCommit is Commit with contract panics as errors.
	CheckedCommit(txnID int) error
	// LiveTxnIDs returns the sorted ids of the monitor-resident
	// transactions — committed-but-unreclaimed ones included, since
	// residency lasts until a compaction pass reclaims them.
	LiveTxnIDs() []int
	// InFlightTxnIDs returns the sorted ids of the resident
	// transactions not yet committed — the set a drain waits on.
	InFlightTxnIDs() []int
}

var (
	_ Certifier = (*core.Monitor)(nil)
	_ Certifier = (*core.ShardedMonitor)(nil)
)

// ParallelCertify is the sharded certification pipeline: the
// abort-capable optimistic gate of OptimisticCertify (same victim
// rotation, solo escalation, and cascadeless delayed-read discipline,
// so its schedules are PWSR ∧ DR by construction and runs do not
// stall) backed by a core.ShardedMonitor instead of the single
// monitor, with the admission preflight fanned out: over more than one
// shard, each Pick runs the probes its verdict memo could not answer on
// their own goroutines (unless they are too few, see
// parallelProbeThreshold).
//
// Requests whose items route to disjoint monitor shards certify fully
// in parallel; requests contending for a shard order through the
// shard's lock — the fence of the sharded monitor — so contention
// costs exactly the conflicting fraction of the workload, not a
// global serialization. With the engine's Pick loop on one goroutine
// this buys parallelism across the pending set of each scheduling
// step; feeding the ShardedMonitor from genuinely concurrent
// admission streams (many engines, or ObserveAll's epoch pipeline) is
// measured by the PERF6 GOMAXPROCS sweep.
//
// Because the sharded monitor is observationally identical to the
// single monitor under a serialized feed, ParallelCertify makes
// exactly the decisions OptimisticCertify makes for the same workload
// and inner policy (TestParallelCertifyDifferential asserts schedule
// equality); only the admission cost scales with cores.
type ParallelCertify struct {
	*OptimisticCertify
	smon *core.ShardedMonitor
	// shardArg is the construction-time shards argument (not the
	// resolved count), kept so ClonePolicy reproduces the construction.
	shardArg int
}

// NewParallelCertify returns the sharded abort-capable certification
// gate over the conjunct partition. shards ≤ 0 selects GOMAXPROCS
// (clamped to the conjunct count); victim selects the sacrifice
// policy (nil = VictimYoungest).
func NewParallelCertify(partition []state.ItemSet, shards int, inner exec.Policy, victim VictimPolicy) *ParallelCertify {
	smon := core.NewShardedMonitor(partition, shards)
	oc := newOptimisticCertify(smon, inner, victim)
	oc.partition = partition
	oc.fan = smon.Shards() > 1
	return &ParallelCertify{
		OptimisticCertify: oc,
		smon:              smon,
		shardArg:          shards,
	}
}

// ShardedMonitor exposes the gate's sharded certifier, with
// OptimisticCertify.Monitor's contract.
func (c *ParallelCertify) ShardedMonitor() *core.ShardedMonitor {
	c.Monitor()
	return c.smon
}

// ShardStats implements exec.ShardReporter: per-shard admission
// counters, surfaced in the engine's run metrics.
func (c *ParallelCertify) ShardStats() []exec.ShardStat {
	stats := c.smon.ShardStats()
	out := make([]exec.ShardStat, len(stats))
	for i, s := range stats {
		out[i] = exec.ShardStat{
			Shard:     s.Shard,
			Conjuncts: s.Conjuncts,
			Observes:  s.Observes,
			Probes:    s.Probes,
			Denials:   s.Denials,
		}
	}
	return out
}
