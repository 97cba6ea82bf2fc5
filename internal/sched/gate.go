package sched

import (
	"sync"

	"pwsr/internal/exec"
)

// gate is what the certification gates share, embedded by Certify and
// OptimisticCertify: the inner policy,
// the mutex serializing the entry points, the verdict memo over the
// certifier (memo.mon), the journal, the fault hook and the lifecycle
// posture. The operations every gate offers — journal, fault hook,
// drain and close, batch admission, the watermark, the stats snapshot
// and the certifier — are its methods, written once; each gate type
// adds only its Pick and its abort bookkeeping.
type gate struct {
	// Inner picks among the admissible requests.
	Inner exec.Policy

	// mu serializes the gate's entry points so batch admissions from a
	// ParallelEngine's committers interleave safely with an engine's
	// tick loop, and so a stats snapshot never races either. A
	// single-engine run takes it uncontended.
	mu sync.Mutex

	// jn carries the optional write-ahead journal (see AttachJournal):
	// lifecycle events reach it through the certifier's sink, and the
	// gate barriers before acknowledging grants, retractions, commits
	// and batch admissions.
	jn journaled

	// tinj is the optional deterministic fault hook consulted once per
	// Pick (see SetFaultInjector).
	tinj tickInjector

	// lc is the gate's lifecycle posture (see Drain and Close): while
	// draining only transactions live at drain start receive grants,
	// and a closed gate grants nothing.
	lc lifecycle

	// memo carries the admissibility verdicts from tick to tick and
	// holds the per-tick scratch (see verdictMemo). Its certifier is the
	// gate's.
	memo verdictMemo
}

// Both certification gates are whole exec.Gates through the embedded
// gate and their own Pick, TxnFinished and TxnCanceled; the optimistic
// one is also the engines' Restarter.
var (
	_ exec.Gate      = (*Certify)(nil)
	_ exec.Gate      = (*OptimisticCertify)(nil)
	_ exec.Restarter = (*OptimisticCertify)(nil)
)

// Monitor exposes the gate's certifier, for inspection after a run. To
// change certification state through it while a run is ticking, fetch
// it anew before each change: handing the certifier out moves the global
// epoch, which invalidates the verdicts the gate carries between ticks.
func (g *gate) Monitor() Certifier {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.memo.global++
	return g.memo.mon
}

// pick is the body of the gates' Pick, run under the gate mutex: an
// injected tick fault passes the tick, a frozen journal or a closed
// gate grants nothing, and otherwise the memo masks the pending
// requests — solo exclusivity (0 = none) and the delayed-read rule as
// the gate applies them — and the inner policy's choice among the
// admissible ones is committed to the certifier.
func (g *gate) pick(pending []*exec.Request, v *exec.View, solo int, delayedRead bool) int {
	if g.tinj.tick() {
		return exec.PassTick // injected tick fault: skip, re-pick next tick
	}
	if g.jn.frozen() || g.lc.closed {
		return -1 // journal fail-stop or shed, or closed gate: certify nothing further
	}
	g.memo.mask(pending, v, &g.lc, solo, delayedRead)
	return g.memo.grant(pending, v, g.Inner, &g.jn)
}

// retract rolls transaction id's attempt out of certification state,
// under the gate mutex, so the certifier again equals a fresh replay of
// the surviving schedule: retraction, the memo's epochs, the journal
// barrier. The inner policy only picks; it is not told of aborts.
func (g *gate) retract(id int) {
	g.memo.mon.Retract(id)
	g.memo.settle(id)
	g.jn.ack()
}

// finish commits the finished transaction to the certifier, under the
// gate mutex: it will issue no further operations, so the compactor may
// reclaim its certification state once no future cycle can reach it
// (see core.Monitor.Compact). Without this signal the certifier would
// retain every finished transaction and a long-lived gate's memory
// would grow with the stream.
func (g *gate) finish(id int, v *exec.View) {
	g.memo.commit(id)
	g.jn.ack()
	g.Inner.TxnFinished(id, v)
}

// Stats implements exec.Gate: the certifier's lifecycle
// counters, the journal's counters and the gate's health,
// snapshotted under one hold of the gate mutex, so an engine's harvest
// never races another engine ticking or admitting through the same
// gate.
func (g *gate) Stats() exec.GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats()
}

// stats is Stats under the gate mutex.
func (g *gate) stats() exec.GateStats {
	cs := g.memo.mon.CompactStats()
	return exec.GateStats{
		Compact: exec.CompactStats{
			Compactions:   cs.Compactions,
			ReclaimedTxns: cs.ReclaimedTxns,
			ReclaimedOps:  cs.ReclaimedOps,
			LiveTxns:      cs.LiveTxns,
		},
		Log:    g.jn.logStats(),
		Health: g.health(),
	}
}
