package exec

import (
	"context"
	"errors"
	"fmt"
)

// Typed lifecycle errors. They are deliberately distinct from every
// certification outcome: a canceled or deadline-expired run is not a
// stall (ErrStall) and not an outage (ErrJournalDown/ErrDegraded) —
// callers route on errors.Is without ambiguity.
var (
	// ErrCanceled reports that a run, batch, or drain was cut short by
	// context cancellation. In-flight transactions were aborted through
	// the policy's Retract path; the partial Result returned alongside
	// holds exactly the committed prefix.
	ErrCanceled = errors.New("exec: canceled")

	// ErrDeadline is the deadline-expiry flavor of ErrCanceled: the
	// context's deadline passed before the work finished. Same
	// abort-and-settle semantics, distinguishable for callers that
	// treat timeouts differently from explicit cancels.
	ErrDeadline = errors.New("exec: deadline exceeded")

	// ErrDraining is returned for work refused because the gate is
	// draining: in-flight transactions may still finish, but no new
	// transaction is admitted.
	ErrDraining = errors.New("exec: gate draining")

	// ErrGateClosed is returned for work refused because the gate has
	// been closed.
	ErrGateClosed = errors.New("exec: gate closed")
)

// CancelError maps a context's termination cause to the typed pair:
// nil while ctx is live, ErrDeadline-wrapped after deadline expiry,
// ErrCanceled-wrapped after an explicit cancel. The ctx error stays in
// the chain, so errors.Is(err, context.Canceled) keeps working too.
func CancelError(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
