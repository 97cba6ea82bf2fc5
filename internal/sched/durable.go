package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// Journal is the durability hook a certification gate writes ahead of
// acknowledging grants: a lifecycle sink that receives every monitor
// event plus a Barrier that reports whether everything acknowledged so
// far can still be made durable. wal.Writer is the production
// implementation; Barrier's contract is the write-ahead discipline —
// a gate calls it after feeding a granted operation to the certifier
// and refuses the grant when it fails.
type Journal interface {
	core.LifecycleSink
	// Barrier returns nil while the journal is healthy and the sticky
	// fail-stop error once it is not.
	Barrier() error
}

var _ Journal = (*wal.Writer)(nil)

// Healer is the optional Journal extension the buffered degradation
// mode drains through: Heal attempts to clear the journal's fail-stop
// (e.g. by rebuilding the active segment on a recovered or promoted
// backend), and LoggedSeq reports the last event the journal has
// absorbed — the probe the gate uses to decide whether an emission
// that barriered with an error still made it into the journal's
// replay image. wal.Writer implements it; a journal without Heal
// buffers conservatively and can only trip to shed, never drain.
type Healer interface {
	// Heal attempts to clear the journal's fail-stop; nil means the
	// journal accepts traffic again.
	Heal() error
	// LoggedSeq is the sequence number of the last absorbed event.
	LoggedSeq() uint64
}

var _ Healer = (*wal.Writer)(nil)

// journalStatter is the optional Journal extension the gates use to
// surface durability counters in run metrics (wal.Writer implements
// it).
type journalStatter interface {
	Stats() wal.Stats
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
	// DegradeBuffer bridges the outage through a bounded in-memory
	// admission queue: grants keep flowing while the queue holds every
	// un-absorbed event, and the queue drains through Healer.Heal once
	// the backend recovers or a standby is promoted. Overflowing the
	// queue (or exceeding the deadline) trips the gate to shed. The
	// trade is bounded durability exposure — up to WithBufferCap
	// acknowledged admissions ride on memory until the next successful
	// heal, the outage-time analogue of group commit's GroupEvery-1
	// window — but never an un-journaled grant after recovery: a crash
	// during the outage loses only buffered admissions, which were
	// never durable-acknowledged to begin with, and the log still
	// replays to a consistent prefix.
	DegradeBuffer
)

// JournalOption configures a gate's degradation behavior at
// AttachJournal time.
type JournalOption func(*journaled)

// WithDegradeMode selects the gate's response to a journal failure
// (default DegradeFailStop).
func WithDegradeMode(m DegradeMode) JournalOption {
	return func(j *journaled) { j.mode = m }
}

// WithBufferCap bounds the DegradeBuffer admission queue (default 64;
// n <= 0 keeps the default). The cap is the gate's durability
// exposure: at most n acknowledged admissions ride on memory during
// an outage.
func WithBufferCap(n int) JournalOption {
	return func(j *journaled) {
		if n > 0 {
			j.bufferCap = n
		}
	}
}

// WithBufferDeadline bounds how long a DegradeBuffer gate bridges an
// outage before tripping to shed (default 0 = no deadline, the cap
// alone bounds exposure).
func WithBufferDeadline(d time.Duration) JournalOption {
	return func(j *journaled) { j.bufferDeadline = d }
}

// WithHealBackoff paces the buffered gate's Heal attempts: the delay
// doubles from base per consecutive failed attempt, is capped at max
// (max <= 0 selects 16x base), and is jittered into [d/2, d] so
// replicas healing from the same outage do not retry in lockstep.
// base <= 0 (the default) heals eagerly on every ack.
func WithHealBackoff(base, max time.Duration) JournalOption {
	return func(j *journaled) {
		j.healBase = base
		j.healMax = max
	}
}

// bufferedEvent is one queued lifecycle event a DegradeBuffer gate
// holds while the journal is down, replayed in order through the
// healed journal.
type bufferedEvent struct {
	kind      byte // 'o' observe, 'c' commit, 'r' retract, 'k' compact
	op        txn.Op
	txn       int
	reclaimed []int
	stats     core.CompactStats
	ops       int
}

// journaled is the state a certification gate keeps per attached
// journal, shared by Certify and OptimisticCertify. It sits between
// the certifier and the journal as the monitor's lifecycle sink, so
// the degradation modes can interpose on the event stream (queue it,
// drop it) without the certifier or journal knowing. All methods run
// under the owning gate's mutex.
type journaled struct {
	journal Journal
	// jerr is the sticky latch: set when the gate froze (fail-stop) or
	// tripped (shed); nil while healthy or buffering.
	jerr error
	mode DegradeMode
	// degraded latches shed mode: set on the first failed ack under
	// DegradeShed, or when a DegradeBuffer queue trips its bounds.
	degraded       bool
	bufferCap      int
	bufferDeadline time.Duration
	healBase       time.Duration
	healMax        time.Duration
	// queue holds events not yet absorbed by the journal (DegradeBuffer
	// only). Order is the monitor's application order; once anything is
	// queued, every later event queues behind it.
	queue []bufferedEvent
	// downSince is when the current outage began (zero while healthy).
	downSince   time.Time
	lastHealTry time.Time
	healTries   int
	rng         uint64
	shed        int64
	buffered    int64
	dropped     int64
}

// attach wires the journal behind the certifier's lifecycle sink,
// with the journaled state interposed. The sink emission order is the
// monitor's application order, so the log is a faithful replay
// script; the gate's Barrier calls establish the write-ahead contract
// on top (see ack).
func (j *journaled) attach(mon Certifier, journal Journal, opts ...JournalOption) {
	j.journal = journal
	j.jerr = nil
	j.mode = DegradeFailStop
	j.degraded = false
	j.bufferCap = 64
	j.bufferDeadline = 0
	j.healBase = 0
	j.healMax = 0
	j.queue = nil
	j.downSince = time.Time{}
	j.healTries = 0
	for _, o := range opts {
		o(j)
	}
	mon.SetSink(j)
}

// LogObserve implements core.LifecycleSink.
func (j *journaled) LogObserve(o txn.Op) {
	j.forward(bufferedEvent{kind: 'o', op: o})
}

// LogCommit implements core.LifecycleSink.
func (j *journaled) LogCommit(txnID int) {
	j.forward(bufferedEvent{kind: 'c', txn: txnID})
}

// LogRetract implements core.LifecycleSink.
func (j *journaled) LogRetract(txnID int) {
	j.forward(bufferedEvent{kind: 'r', txn: txnID})
}

// LogCompact implements core.LifecycleSink.
func (j *journaled) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	j.forward(bufferedEvent{kind: 'k', reclaimed: reclaimed, stats: stats, ops: ops})
}

// emit replays one event into the journal.
func (j *journaled) emit(ev bufferedEvent) {
	switch ev.kind {
	case 'o':
		j.journal.LogObserve(ev.op)
	case 'c':
		j.journal.LogCommit(ev.txn)
	case 'r':
		j.journal.LogRetract(ev.txn)
	case 'k':
		j.journal.LogCompact(ev.reclaimed, ev.stats, ev.ops)
	}
}

// enqueue appends ev to the admission queue, cloning the reclaimed
// slice (the monitor may reuse its backing array after the callback
// returns).
func (j *journaled) enqueue(ev bufferedEvent) {
	if ev.reclaimed != nil {
		ev.reclaimed = append([]int(nil), ev.reclaimed...)
	}
	j.queue = append(j.queue, ev)
}

// forward routes one lifecycle event: straight to the journal in the
// fail-stop and shed modes (the barrier in ack decides what happens
// on failure), and through the admission queue in buffer mode once
// anything is queued — order preservation demands that no event
// overtakes a queued one. An event emitted into a failing journal is
// queued only if the journal did not absorb it (LoggedSeq probe); an
// absorbed event lives in the journal's replay image and will be made
// durable by the next successful heal, so re-queueing it would
// double-apply on drain.
func (j *journaled) forward(ev bufferedEvent) {
	if j.journal == nil {
		return
	}
	if j.mode != DegradeBuffer || j.degraded {
		j.emit(ev)
		return
	}
	if len(j.queue) > 0 {
		j.enqueue(ev)
		return
	}
	h, healer := j.journal.(Healer)
	var before uint64
	if healer {
		before = h.LoggedSeq()
	}
	j.emit(ev)
	if j.journal.Barrier() != nil {
		if !healer || h.LoggedSeq() == before {
			j.enqueue(ev)
		}
	}
}

// ack is the write-ahead barrier a gate runs after mutating the
// certifier and before acknowledging the mutation to the engine: it
// returns false when the mutation cannot be made durable under the
// gate's degradation policy. Under DegradeFailStop a false ack
// latches the sticky error and the gate freezes (the run surfaces
// exec.ErrJournalDown) — a certifier that cannot log must not admit.
// Under DegradeShed the gate latches degraded and refuses every
// further admission (exec.ErrDegraded). Under DegradeBuffer the gate
// acknowledges against the bounded queue, healing and draining
// opportunistically, and trips to shed when the queue overflows its
// cap or deadline.
func (j *journaled) ack() bool {
	if j.journal == nil {
		return true
	}
	if j.degraded {
		j.shed++
		return false
	}
	if j.jerr != nil {
		// Fail-stop latched: stay frozen.
		return false
	}
	err := j.journal.Barrier()
	if err == nil && len(j.queue) == 0 {
		j.downSince = time.Time{}
		j.healTries = 0
		return true
	}
	switch j.mode {
	case DegradeShed:
		j.jerr = err
		j.degraded = true
		j.shed++
		return false
	case DegradeBuffer:
		if j.downSince.IsZero() {
			j.downSince = time.Now()
		}
		if j.tryHealDrain() {
			j.downSince = time.Time{}
			j.healTries = 0
			return true
		}
		if len(j.queue) <= j.bufferCap &&
			(j.bufferDeadline <= 0 || time.Since(j.downSince) <= j.bufferDeadline) {
			j.buffered++
			return true
		}
		// Trip: the outage outlasted the buffer's bounds. Everything
		// queued was acknowledged against memory only — count it
		// dropped, latch shed.
		j.dropped += int64(len(j.queue))
		j.queue = nil
		if err == nil {
			err = j.journal.Barrier()
		}
		j.jerr = err
		j.degraded = true
		j.shed++
		return false
	default: // DegradeFailStop
		j.jerr = err
		return false
	}
}

// tryHealDrain attempts to bring the journal back and replay the
// admission queue through it, returning true when the journal is
// healthy and the queue is empty. Heal attempts are paced by
// WithHealBackoff; a journal without Healer can never drain (its
// queue only grows until the gate trips to shed — conservative, and
// safe because nothing queued is ever double-applied).
func (j *journaled) tryHealDrain() bool {
	h, ok := j.journal.(Healer)
	if !ok {
		return false
	}
	if j.journal.Barrier() != nil {
		if !j.healDue() {
			return false
		}
		j.healTries++
		j.lastHealTry = time.Now()
		if h.Heal() != nil {
			return false
		}
		j.healTries = 0
	}
	for len(j.queue) > 0 {
		before := h.LoggedSeq()
		j.emit(j.queue[0])
		if j.journal.Barrier() != nil {
			if h.LoggedSeq() > before {
				// Absorbed into the replay image; the next heal's rebase
				// makes it durable — do not replay it again.
				j.queue = j.queue[1:]
			}
			return false
		}
		j.queue = j.queue[1:]
	}
	return j.journal.Barrier() == nil
}

// drainFlush settles the journal at drain time: a buffering gate
// keeps healing and replaying its admission queue until the journal
// has absorbed everything acknowledged so far, bounded by ctx — on
// expiry the queue is dropped and the gate trips to shed exactly as a
// buffer overflow would, so the drain terminates with a typed error
// rather than waiting on Heal forever. Non-buffering modes reduce to
// one barrier probe. The gate mutex is released while waiting so
// Health stays responsive; callers hold it on entry and exit.
func (j *journaled) drainFlush(ctx context.Context, mu *sync.Mutex) error {
	if j.journal == nil {
		return nil
	}
	if j.frozen() {
		return j.refusalErr()
	}
	if j.mode == DegradeBuffer {
		for len(j.queue) > 0 || j.journal.Barrier() != nil {
			if j.tryHealDrain() {
				break
			}
			if err := exec.CancelError(ctx); err != nil {
				n := len(j.queue)
				j.dropped += int64(n)
				j.queue = nil
				if j.jerr == nil {
					j.jerr = j.journal.Barrier()
				}
				j.degraded = true
				j.shed++
				return fmt.Errorf("sched: journal flush abandoned at drain deadline (%d buffered event(s) dropped): %w", n, err)
			}
			mu.Unlock()
			t := time.NewTimer(time.Millisecond)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
			mu.Lock()
			if j.frozen() {
				return j.refusalErr()
			}
		}
		return nil
	}
	if err := j.journal.Barrier(); err != nil {
		return fmt.Errorf("%w: %v", exec.ErrJournalDown, err)
	}
	return nil
}

// healDue paces Heal attempts: exponential from healBase per
// consecutive failure, capped at healMax (<= 0 selects 16x base),
// jittered into [d/2, d]. base <= 0 heals eagerly.
func (j *journaled) healDue() bool {
	if j.healBase <= 0 || j.healTries == 0 {
		return true
	}
	d := j.healBase
	for i := 0; i < j.healTries && i < 16; i++ {
		d *= 2
	}
	max := j.healMax
	if max <= 0 {
		max = 16 * j.healBase
	}
	if d > max {
		d = max
	}
	// splitmix64 jitter into [d/2, d].
	j.rng += 0x9e3779b97f4a7c15
	z := j.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if half := d / 2; half > 0 {
		d = half + time.Duration(z%uint64(half+1))
	}
	return time.Since(j.lastHealTry) >= d
}

// frozen reports whether the gate refuses all further admissions: the
// fail-stop latch, or the sticky shed state. A buffering gate that
// has not tripped is not frozen.
func (j *journaled) frozen() bool {
	return j.degraded || (j.jerr != nil && j.mode == DegradeFailStop)
}

// refusalErr is the typed cause batch admission wraps when the gate
// refuses by durability policy: exec.ErrDegraded for a shedding gate,
// exec.ErrJournalDown for the fail-stop latch.
func (j *journaled) refusalErr() error {
	if j.degraded {
		return fmt.Errorf("%w: %v", exec.ErrDegraded, j.jerr)
	}
	return fmt.Errorf("%w: %v", exec.ErrJournalDown, j.jerr)
}

// health snapshots the durability state for exec.Health.
func (j *journaled) health() exec.Health {
	h := exec.Health{
		Shed:     j.shed,
		Buffered: j.buffered,
		Dropped:  j.dropped,
		Queued:   len(j.queue),
	}
	if !j.downSince.IsZero() {
		h.OutageAge = time.Since(j.downSince)
	}
	switch {
	case j.degraded:
		h.Mode = exec.ModeShed
		h.JournalErr = j.jerr
	case j.jerr != nil:
		h.Mode = exec.ModeFailStop
		h.FailStopLatched = true
		h.JournalErr = j.jerr
	case j.journal != nil:
		// Probe the barrier exactly once: the mode decision and the
		// reported error must come from the same observation, or a
		// writer failing between two probes yields a ModeBuffering
		// report with a nil JournalErr (or vice versa).
		if berr := j.journal.Barrier(); len(j.queue) > 0 || berr != nil {
			h.Mode = exec.ModeBuffering
			h.JournalErr = berr
		} else {
			h.Mode = exec.ModeOK
		}
	default:
		h.Mode = exec.ModeOK
	}
	if s, ok := j.journal.(journalStatter); ok {
		st := s.Stats()
		h.Promotions = st.Failovers
		h.Heals = st.Heals
	}
	return h
}

// logStats surfaces the attached journal's counters (zero without a
// stats-reporting journal).
func (j *journaled) logStats() exec.LogStats {
	s, ok := j.journal.(journalStatter)
	if !ok {
		return exec.LogStats{}
	}
	st := s.Stats()
	return exec.LogStats{
		Records:         st.Records,
		LogBytes:        st.LogBytes,
		Fsyncs:          st.Fsyncs,
		Snapshots:       st.Snapshots,
		Retries:         st.Retries,
		RecoveryReplays: st.RecoveryReplays,
	}
}

// AttachJournal wires a write-ahead journal to the blocking gate:
// every lifecycle event the monitor applies is logged, and a granted
// operation is acknowledged only after the journal's barrier passes.
// On journal failure the gate's response is the configured
// DegradeMode: freeze (default; the run surfaces exec.ErrJournalDown),
// shed (exec.ErrDegraded), or buffer through a bounded in-memory
// queue that drains once the journal heals. Attach before the first
// Pick.
func (c *Certify) AttachJournal(j Journal, opts ...JournalOption) {
	c.jn.attach(c.mon, j, opts...)
}

// Journal returns the attached journal, or nil (close it when the run
// is over — the gate barriers but never closes).
func (c *Certify) Journal() Journal { return c.jn.journal }

// JournalErr returns the sticky journal error that froze or degraded
// the gate, or nil.
func (c *Certify) JournalErr() error { return c.jn.jerr }

// LogStats implements exec.LogReporter: the journal's durability
// counters, surfaced in the engine's run metrics.
func (c *Certify) LogStats() exec.LogStats { return c.jn.logStats() }

// Health implements exec.HealthReporter: the gate's degradation mode,
// lifecycle posture, and durability counters.
func (c *Certify) Health() exec.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.jn.health()
	h.Draining, h.Closed = c.lc.draining, c.lc.closed
	return h
}

// AttachJournal wires a write-ahead journal to the abort-capable gate:
// grants, retractions, and commits are all logged and barriered before
// the engine proceeds on them. On journal failure the gate's response
// is the configured DegradeMode (default: freeze; the run surfaces
// exec.ErrJournalDown). Attach before the first Pick.
func (c *OptimisticCertify) AttachJournal(j Journal, opts ...JournalOption) {
	c.jn.attach(c.mon, j, opts...)
}

// Journal returns the attached journal, or nil (close it when the run
// is over — the gate barriers but never closes).
func (c *OptimisticCertify) Journal() Journal { return c.jn.journal }

// JournalErr returns the sticky journal error that froze or degraded
// the gate, or nil.
func (c *OptimisticCertify) JournalErr() error { return c.jn.jerr }

// LogStats implements exec.LogReporter: the journal's durability
// counters, surfaced in the engine's run metrics.
func (c *OptimisticCertify) LogStats() exec.LogStats { return c.jn.logStats() }

// Health implements exec.HealthReporter: the gate's degradation mode,
// lifecycle posture, and durability counters.
func (c *OptimisticCertify) Health() exec.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.jn.health()
	h.Draining, h.Closed = c.lc.draining, c.lc.closed
	return h
}

// NewCertifyOver returns the blocking certification gate over an
// explicit monitor — the recovery path: rebuild the monitor with
// wal.Resume, then gate new traffic over it with the resumed journal
// attached.
func NewCertifyOver(mon *core.Monitor, inner exec.Policy) *Certify {
	return &Certify{Inner: inner, mon: mon, memo: verdictMemo{mon: mon}}
}

// NewOptimisticCertifyOver returns the abort-capable certification
// gate over an explicit certifier — the recovery path twin of
// NewCertifyOver. victim selects the sacrifice policy (nil =
// VictimYoungest).
func NewOptimisticCertifyOver(mon Certifier, inner exec.Policy, victim VictimPolicy) *OptimisticCertify {
	return newOptimisticCertify(mon, inner, victim)
}

// ResumeCertify recovers a journaled blocking gate from the log on b:
// the monitor is rebuilt to the durable prefix's exact verdict state,
// the journal resumes with a fresh baseline snapshot, and the
// returned gate continues certification where the crashed gate's
// durable prefix ended. Returns recovery info for inspection.
func ResumeCertify(b wal.Backend, partition []state.ItemSet, opts wal.Options, inner exec.Policy) (*Certify, *wal.Info, error) {
	mon, w, info, err := wal.Resume(b, partition, opts)
	if err != nil {
		return nil, info, err
	}
	gate := NewCertifyOver(mon, inner)
	gate.AttachJournal(w)
	return gate, info, nil
}
