package exec

import (
	"errors"
	"fmt"
)

// ErrJournalDown is returned by RunCtx — instead of, and distinguishable
// from, ErrStall — when the run stopped because the certifying
// policy's write-ahead journal latched its fail-stop: the gate froze
// rather than acknowledge grants it cannot make durable. A stall is a
// scheduling condition (retune the policy or workload); a downed
// journal is a storage outage (fix the device and resume from the
// log).
var ErrJournalDown = errors.New("exec: journal down")

// Health is the durability-health summary a journaled gate reports:
// the sticky journal error (if any) and the lifecycle posture. The
// engine copies it into Metrics at the end of a run and consults it to
// reclassify a stall caused by a frozen gate as ErrJournalDown.
type Health struct {
	// JournalErr is the sticky journal error that froze the gate, nil
	// while healthy. A frozen gate refuses every further grant and only
	// a resume from the log clears it.
	JournalErr error
	// Draining reports the gate's drain posture: Drain has begun,
	// transactions already in flight may finish, and new admissions are
	// refused with ErrDraining.
	Draining bool
	// Closed reports the terminal posture: the gate refuses all work
	// with ErrGateClosed.
	Closed bool
}

// stallCause reclassifies a stall through the gate's Stats health: a gate
// frozen by a journal fail-stop surfaces ErrJournalDown, which does not
// wrap ErrStall, so callers can errors.Is-distinguish a storage outage
// from a scheduling livelock. A healthy running gate, or a policy that
// is not a Gate, keeps the original stall error.
func stallCause(g Gate, stall error) error {
	if g == nil {
		return stall
	}
	h := g.Stats().Health
	if h.JournalErr != nil {
		return fmt.Errorf("%w: %v", ErrJournalDown, h.JournalErr)
	}
	// Lifecycle posture is checked after the outage: a frozen journal
	// explains a stall regardless of drain state, but a healthy
	// draining/closed gate refusing new work is a lifecycle condition,
	// not a scheduling livelock.
	switch {
	case h.Closed:
		return fmt.Errorf("%w: %v", ErrGateClosed, stall)
	case h.Draining:
		return fmt.Errorf("%w: unstarted transactions refused during drain: %v", ErrDraining, stall)
	}
	return stall
}
