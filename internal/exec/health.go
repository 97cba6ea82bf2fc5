package exec

import (
	"errors"
	"fmt"
	"time"
)

// ErrJournalDown is returned by RunCtx — instead of, and distinguishable
// from, ErrStall — when the run stopped because the certifying
// policy's write-ahead journal latched its fail-stop: the gate froze
// rather than acknowledge grants it cannot make durable. A stall is a
// scheduling condition (retune the policy or workload); a downed
// journal is a storage outage (fix the device, fail over, or resume
// from the log).
var ErrJournalDown = errors.New("exec: journal down")

// ErrDegraded is returned by RunCtx when the gate entered its shedding
// degradation mode (sched.DegradeShed, or a buffering gate that
// tripped): admissions are refused by policy, not by verdict, and the
// durable log holds a consistent prefix of what the gate admitted.
var ErrDegraded = errors.New("exec: gate degraded")

// Mode is a journaled gate's degradation state, as reported in Health.
type Mode int

const (
	// ModeOK: the journal is healthy (or no journal is attached).
	ModeOK Mode = iota
	// ModeFailStop: the journal failed and the gate froze — the
	// default, strictest degradation (see sched.DegradeFailStop).
	ModeFailStop
	// ModeShed: the gate sheds admissions after a journal failure and
	// the run surfaces ErrDegraded (see sched.DegradeShed).
	ModeShed
	// ModeBuffering: the journal is down but the gate is bridging the
	// outage through its bounded admission buffer, draining it once the
	// journal heals or a standby is promoted (see sched.DegradeBuffer).
	ModeBuffering
)

// String renders the mode for logs and test output.
func (m Mode) String() string {
	switch m {
	case ModeOK:
		return "ok"
	case ModeFailStop:
		return "fail-stop"
	case ModeShed:
		return "shed"
	case ModeBuffering:
		return "buffering"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Health is the durability-health summary a journaled gate reports:
// its degradation mode, the sticky journal error (if any), and the
// failover/degradation counters. The engine copies it into Metrics at
// the end of a run and consults it to reclassify stalls caused by a
// frozen gate as ErrJournalDown/ErrDegraded.
type Health struct {
	// Mode is the gate's current degradation state.
	Mode Mode
	// JournalErr is the sticky journal error, nil while healthy.
	JournalErr error
	// FailStopLatched reports the strict freeze: the gate refuses every
	// further grant and only a Heal or resume-from-log clears it.
	FailStopLatched bool
	// Promotions counts standby promotions the journal's failover
	// backend performed (wal.Stats.Failovers).
	Promotions int64
	// Heals counts journal fail-stops cleared by heal (wal.Stats.Heals).
	Heals int64
	// Shed counts admissions refused while degraded.
	Shed int64
	// Buffered counts acknowledgments granted against the in-memory
	// admission buffer during an outage (DegradeBuffer).
	Buffered int64
	// Dropped is the number of buffered events abandoned when a
	// buffering gate tripped to shed (0 while the buffer drains).
	Dropped int64
	// Queued is the current depth of the admission buffer.
	Queued int
	// OutageAge is how long the current journal outage has been
	// running (zero while healthy): the age of the sticky error a
	// frozen gate latched, or of the outage a buffering gate is
	// bridging.
	OutageAge time.Duration
	// Draining reports the gate's drain posture: Drain has begun,
	// transactions already in flight may finish, and new admissions are
	// refused with ErrDraining.
	Draining bool
	// Closed reports the terminal posture: the gate refuses all work
	// with ErrGateClosed.
	Closed bool
}

// stallCause reclassifies a stall through the gate's Stats health: a gate
// frozen by a journal fail-stop surfaces ErrJournalDown, a shedding
// gate ErrDegraded — neither wraps ErrStall, so callers can
// errors.Is-distinguish a storage outage from a scheduling livelock.
// A stall while the gate is buffering through an outage keeps the
// ErrStall identity (the gate is still admitting; the stall is a
// scheduling condition) but carries the outage posture — queue depth
// and outage age — so the operator sees the journal is down instead
// of a bare stall. A healthy gate, or a policy that is not a Gate,
// keeps the original stall error.
func stallCause(g Gate, stall error) error {
	if g == nil {
		return stall
	}
	h := g.Stats().Health
	switch h.Mode {
	case ModeFailStop:
		return fmt.Errorf("%w: %v", ErrJournalDown, h.JournalErr)
	case ModeShed:
		return fmt.Errorf("%w: %v", ErrDegraded, h.JournalErr)
	}
	// Lifecycle posture is checked after the outage modes: a frozen
	// journal explains a stall regardless of drain state, but a healthy
	// draining/closed gate refusing new work is a lifecycle condition,
	// not a scheduling livelock.
	switch {
	case h.Closed:
		return fmt.Errorf("%w: %v", ErrGateClosed, stall)
	case h.Draining:
		return fmt.Errorf("%w: unstarted transactions refused during drain: %v", ErrDraining, stall)
	}
	if h.Mode == ModeBuffering {
		return fmt.Errorf("%w (journal outage in progress: buffering, %d queued, down %v: %v)",
			stall, h.Queued, h.OutageAge.Round(time.Millisecond), h.JournalErr)
	}
	return stall
}
