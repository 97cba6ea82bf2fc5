package sched

import (
	"sync"

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
	// Inner picks among the admissible requests.
	Inner exec.Policy
	mon   *core.Monitor

	// mu serializes the gate's mutating entry points (Pick, TxnFinished,
	// AdmitTxn) so batch admissions from a ParallelEngine's committers
	// interleave safely with an engine's tick loop. A single-engine run
	// takes it uncontended.
	mu sync.Mutex

	// partition is the construction-time conjunct partition, kept so
	// ClonePolicy can rebuild an equivalent fresh gate; nil for gates
	// built over an external certifier (NewCertifyOver, ResumeCertify),
	// which are therefore not cloneable.
	partition []state.ItemSet

	// jn carries the optional write-ahead journal (see AttachJournal):
	// lifecycle events reach it through the monitor's sink, and the
	// gate barriers before acknowledging each grant.
	jn journaled

	// tinj is the optional deterministic fault hook consulted once per
	// Pick (see SetFaultInjector).
	tinj tickInjector

	// lc is the gate's lifecycle posture (see Drain and Close): while
	// draining only transactions live at drain start receive grants,
	// and a closed gate grants nothing.
	lc lifecycle

	// memo carries the admissibility verdicts from tick to tick and
	// holds the per-tick scratch (see verdictMemo).
	memo verdictMemo
}

// NewCertify returns a certifying gate over the conjunct partition
// wrapping the inner policy.
func NewCertify(partition []state.ItemSet, inner exec.Policy) *Certify {
	mon := core.NewMonitor(partition)
	return &Certify{Inner: inner, mon: mon, partition: partition, memo: verdictMemo{mon: mon}}
}

// Monitor exposes the gate's certifier, with OptimisticCertify.Monitor's
// contract.
func (c *Certify) Monitor() *core.Monitor {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memo.global++
	return c.mon
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
	if c.tinj.tick() {
		return exec.PassTick // injected tick fault: skip, re-pick next tick
	}
	if c.jn.frozen() || c.lc.closed {
		return -1 // journal fail-stop or shed, or closed gate: certify nothing further
	}
	c.memo.mask(pending, v, &c.lc, 0, false, false)
	return c.memo.grant(pending, v, c.Inner, &c.jn)
}

// TxnFinished implements exec.Policy: the finished transaction is
// committed to the certifier — it will issue no further operations, so
// the monitor's compactor may reclaim its certification state once no
// future cycle can reach it (see core.Monitor.Compact). Without this
// signal the monitor would retain every finished transaction forever
// and a long-lived gate's memory would grow with the stream.
func (c *Certify) TxnFinished(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memo.commit(id)
	c.jn.ack()
	c.Inner.TxnFinished(id, v)
}

// CompactionStats implements exec.CompactionReporter: the certifier's
// lifecycle counters, surfaced in the engine's run metrics.
func (c *Certify) CompactionStats() exec.CompactStats {
	return compactionStats(c.mon)
}

// ProbeStats implements exec.ProbeReporter: the certifier's probe-cache
// counters, surfaced in the engine's run metrics.
func (c *Certify) ProbeStats() exec.ProbeStats {
	return probeStats(c.mon)
}

// probeStats converts a certifier's probe-cache counters to the
// engine's metrics shape (shared by every certification gate).
func probeStats(mon Certifier) exec.ProbeStats {
	st := mon.ProbeStats()
	return exec.ProbeStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Invalidations: st.Invalidations,
	}
}

// compactionStats converts a certifier's lifecycle counters to the
// engine's metrics shape (shared by every certification gate).
func compactionStats(mon Certifier) exec.CompactStats {
	st := mon.CompactStats()
	return exec.CompactStats{
		Compactions:   st.Compactions,
		ReclaimedTxns: st.ReclaimedTxns,
		ReclaimedOps:  st.ReclaimedOps,
		LiveTxns:      st.LiveTxns,
	}
}

// requestOp views a pending request as an operation for the monitor,
// which ignores values and positions.
func requestOp(r *exec.Request) txn.Op {
	return txn.Op{Txn: r.TxnID, Action: r.Action, Entity: r.Entity, Value: r.Value, Pos: -1}
}
