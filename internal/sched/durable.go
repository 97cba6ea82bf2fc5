package sched

import (
	"fmt"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/wal"
)

// Journal is the durability hook a certification gate writes ahead of
// acknowledging grants, and all the gate asks of it; wal.Writer is the
// production implementation.
//
//   - The lifecycle sink receives every monitor event: AttachJournal
//     installs the journal itself as the monitor's sink, so the log is
//     the monitor's application order with no hop between them.
//   - Barrier is the write-ahead discipline: a gate calls it after
//     feeding a granted operation to the certifier and refuses the grant
//     when it fails. It returns nil while the journal is healthy and the
//     sticky fail-stop error once it is not. It does not sync: under
//     group commit a barriered record may still be in memory alone.
//   - Sync makes everything absorbed so far durable, and is a no-op
//     when nothing is pending. The gate's Settle calls it at every run
//     exit, the point where the run reports its commits: a commit is
//     durable once it is acknowledged outside the pipeline.
//   - CutSnapshot forces a segment rotation whose snapshot captures the
//     replay state; Drain cuts one once the gate has quiesced.
//   - Stats feeds the gate's Stats, and the gate's Close calls Close.
type Journal interface {
	core.LifecycleSink
	Barrier() error
	Sync() error
	CutSnapshot() error
	Stats() wal.Stats
	Close() error
}

var _ Journal = (*wal.Writer)(nil)

// Healer names wal.Writer's Heal and LoggedSeq stubs, which no gate
// calls. Kept for benchmark/benchmark_test.go:157 until ROADMAP item 8.
type Healer interface {
	Heal() error
	LoggedSeq() uint64
}

// journaled is the state the certification gate keeps per attached
// journal: the journal and the sticky latch ack sets. All methods run
// under the owning gate's mutex.
type journaled struct {
	journal Journal
	// jerr is the sticky latch: the journal error that froze the gate;
	// nil while healthy.
	jerr error
}

// attach installs the journal as the certifier's lifecycle sink. The
// sink emission order is the monitor's application order, so the log
// is a faithful replay script; the gate's Barrier calls establish the
// write-ahead contract on top (see ack).
func (j *journaled) attach(mon Certifier, journal Journal) {
	*j = journaled{journal: journal}
	mon.SetSink(journal)
}

// ack is the write-ahead barrier a gate runs after mutating the
// certifier and before acknowledging the mutation to the engine: it
// returns false when the mutation cannot be made durable, latching the
// journal error. The gate then freezes and refuses with
// exec.ErrJournalDown — a certifier that cannot log must not admit.
func (j *journaled) ack() bool {
	if j.journal == nil {
		return true
	}
	if j.jerr == nil {
		j.jerr = j.journal.Barrier()
	}
	return j.jerr == nil
}

// settle makes every commit acknowledged so far durable: the journal
// syncs its pending group, and the verdict is ack's (a refusal is
// exec.ErrJournalDown). A successful sync is ack's true without a
// barrier probe; a frozen gate reports its refusal without touching
// the journal.
func (j *journaled) settle() error {
	switch {
	case j.journal == nil:
		return nil
	case j.frozen(): // refused below, the journal untouched
	case j.journal.Sync() == nil, j.ack():
		return nil
	}
	return j.refusalErr()
}

// frozen reports whether the gate refuses all further admissions: the
// latch is set.
func (j *journaled) frozen() bool { return j.jerr != nil }

// refusalErr is the typed cause a refused admission wraps:
// exec.ErrJournalDown with the latched error.
func (j *journaled) refusalErr() error {
	return fmt.Errorf("%w: %v", exec.ErrJournalDown, j.jerr)
}

// logStats surfaces the attached journal's counters (zero without a
// journal).
func (j *journaled) logStats() exec.LogStats {
	if j.journal == nil {
		return exec.LogStats{}
	}
	st := j.journal.Stats()
	return exec.LogStats{
		Records:         st.Records,
		LogBytes:        st.LogBytes,
		Fsyncs:          st.Fsyncs,
		Snapshots:       st.Snapshots,
		Retries:         st.Retries,
		RecoveryReplays: st.RecoveryReplays,
	}
}

// AttachJournal wires a write-ahead journal to the gate: the journal
// becomes the certifier's lifecycle sink, so every event the certifier
// applies is logged, and grants, retractions, commits and batch
// admissions are acknowledged only after the journal's barrier passes.
// On journal failure the gate fails stop: it latches the error, refuses
// every further admission, and the run surfaces exec.ErrJournalDown.
// Attach before the first Pick.
func (g *OptimisticCertify) AttachJournal(j Journal) {
	g.jn.attach(g.memo.mon, j)
}

// Journal returns the attached journal, or nil (the gate's Close closes
// it; Drain does not).
func (g *OptimisticCertify) Journal() Journal { return g.jn.journal }

// Health reports the gate's latched journal error and lifecycle
// posture (the same value Stats carries). It reads the latch alone and
// never probes the journal, so a gate reports an outage once an ack has
// refused on it.
func (g *OptimisticCertify) Health() exec.Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.health()
}

// health is Health under the gate mutex.
func (g *OptimisticCertify) health() exec.Health {
	return exec.Health{JournalErr: g.jn.jerr, Draining: g.lc.draining, Closed: g.lc.closed}
}
