package sched

import (
	"fmt"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
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

// Healer is wal.Writer's heal surface, which no gate calls. Kept for
// benchmark/benchmark_test.go:157 until ROADMAP item 8.
type Healer interface {
	Heal() error
	LoggedSeq() uint64
}

// DegradeMode selects what a journaled gate does when the journal
// fails past its own retry and failover budget. See AttachJournal.
type DegradeMode int

const (
	// DegradeFailStop (the default) freezes the gate: no further
	// grants, sacrifices, or batch admissions; the run surfaces
	// exec.ErrJournalDown. Strictest: nothing is ever acknowledged
	// that the log cannot replay.
	DegradeFailStop DegradeMode = iota
	// DegradeShed keeps the gate responsive but refuses every further
	// admission by policy: batch admission returns an
	// exec.ErrDegraded-wrapped error, engine runs surface
	// exec.ErrDegraded, and the durable log still holds a consistent
	// prefix of everything acknowledged before the outage.
	DegradeShed
)

// JournalOption configures a gate's degradation behavior at
// AttachJournal time.
type JournalOption func(*journaled)

// WithDegradeMode selects the gate's response to a journal failure
// (default DegradeFailStop).
func WithDegradeMode(m DegradeMode) JournalOption {
	return func(j *journaled) { j.mode = m }
}

// journaled is the state the certification gate keeps per attached
// journal: the journal, its degradation mode and the sticky latch ack
// sets. All methods run under the owning gate's mutex.
type journaled struct {
	journal Journal
	mode    DegradeMode
	// jerr is the sticky latch: the journal error that froze
	// (DegradeFailStop) or tripped (DegradeShed) the gate; nil while
	// healthy.
	jerr error
	shed int64
}

// attach installs the journal as the certifier's lifecycle sink. The
// sink emission order is the monitor's application order, so the log
// is a faithful replay script; the gate's Barrier calls establish the
// write-ahead contract on top (see ack).
func (j *journaled) attach(mon Certifier, journal Journal, opts ...JournalOption) {
	*j = journaled{journal: journal}
	for _, o := range opts {
		o(j)
	}
	mon.SetSink(journal)
}

// ack is the write-ahead barrier a gate runs after mutating the
// certifier and before acknowledging the mutation to the engine: it
// returns false when the mutation cannot be made durable, latching the
// journal error. Under DegradeFailStop the gate then freezes (the run
// surfaces exec.ErrJournalDown) — a certifier that cannot log must not
// admit. Under DegradeShed it refuses every further admission
// (exec.ErrDegraded), counting each refusal.
func (j *journaled) ack() bool {
	if j.journal == nil {
		return true
	}
	if j.jerr == nil {
		j.jerr = j.journal.Barrier()
	}
	if j.jerr == nil {
		return true
	}
	if j.mode == DegradeShed {
		j.shed++
	}
	return false
}

// settle makes every commit acknowledged so far durable: the journal
// syncs its pending group, and the verdict is ack's — a fail-stop gate
// reports exec.ErrJournalDown, a shedding one exec.ErrDegraded. A
// successful sync is ack's true without a barrier probe; a frozen gate
// reports its refusal without touching the journal.
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
// latch is set, in either mode.
func (j *journaled) frozen() bool { return j.jerr != nil }

// refusalErr is the typed cause a refused admission wraps:
// exec.ErrDegraded for a shedding gate, exec.ErrJournalDown for the
// fail-stop latch.
func (j *journaled) refusalErr() error {
	if j.mode == DegradeShed {
		return fmt.Errorf("%w: %v", exec.ErrDegraded, j.jerr)
	}
	return fmt.Errorf("%w: %v", exec.ErrJournalDown, j.jerr)
}

// health snapshots the durability state for exec.Health from the
// latch alone: it never probes the journal, so a gate reports an
// outage once an ack has refused on it.
func (j *journaled) health() exec.Health {
	h := exec.Health{JournalErr: j.jerr, Shed: j.shed}
	switch {
	case j.jerr == nil:
	case j.mode == DegradeShed:
		h.Mode = exec.ModeShed
	default:
		h.Mode = exec.ModeFailStop
		h.FailStopLatched = true
	}
	if j.journal != nil {
		st := j.journal.Stats()
		h.Promotions, h.Heals = st.Failovers, st.Heals
	}
	return h
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
// On journal failure the gate's response is the configured
// DegradeMode: freeze (default; the run surfaces exec.ErrJournalDown)
// or shed (exec.ErrDegraded). Attach before the first Pick.
func (g *OptimisticCertify) AttachJournal(j Journal, opts ...JournalOption) {
	g.jn.attach(g.memo.mon, j, opts...)
}

// Journal returns the attached journal, or nil (the gate's Close closes
// it; Drain does not).
func (g *OptimisticCertify) Journal() Journal { return g.jn.journal }

// JournalErr returns the sticky journal error that froze or degraded
// the gate, or nil.
func (g *OptimisticCertify) JournalErr() error { return g.jn.jerr }

// Health reports the gate's live degradation mode, lifecycle posture,
// and durability counters (the same value Stats carries).
func (g *OptimisticCertify) Health() exec.Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.health()
}

// health is Health under the gate mutex.
func (g *OptimisticCertify) health() exec.Health {
	h := g.jn.health()
	h.Draining, h.Closed = g.lc.draining, g.lc.closed
	return h
}

// ResumeCertify recovers a journaled gate from the log on b: the
// monitor is rebuilt to the durable prefix's exact verdict state, the
// journal resumes with a fresh baseline snapshot, and the returned gate
// continues certification where the crashed gate's durable prefix
// ended. victim selects the sacrifice policy (nil = VictimYoungest).
// Returns recovery info for inspection.
func ResumeCertify(b wal.Backend, partition []state.ItemSet, opts wal.Options, inner exec.Policy, victim VictimPolicy) (*OptimisticCertify, *wal.Info, error) {
	mon, w, info, err := wal.Resume(b, partition, opts)
	if err != nil {
		return nil, info, err
	}
	gate := NewOptimisticCertifyOver(mon, inner, victim)
	gate.AttachJournal(w)
	return gate, info, nil
}
