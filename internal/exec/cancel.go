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

// Canceler is the optional Policy extension a cancelled run notifies
// instead of Restarter.TxnAborted: TxnCanceled must retract every
// grant the policy holds for the transaction (journaled like any other
// retraction) without scheduling a restart — the transaction is gone,
// not retried. A certifying gate implements it so that a cancelled run
// leaves the monitor and the WAL in exactly the state a completed run
// that aborted those transactions would ("cancel equals abort").
// Policies that implement Restarter but not Canceler are notified via
// TxnAborted instead.
type Canceler interface {
	Policy
	// TxnCanceled reports that txn id's current attempt was erased by
	// cancellation and will not be retried.
	TxnCanceled(id int, v *View)
}

// Drainer is the drainable-gate extension: Drain stops new admissions,
// settles in-flight transactions per the gate's drain policy, flushes
// the journal barrier, runs a final Commit/Compact pass, and cuts a
// snapshot. It returns nil on a complete drain, or a typed
// ErrCanceled/ErrDeadline-wrapped error describing the unfinished
// remainder when ctx expires first — Drain always terminates within
// the context's deadline (plus scheduling slack).
type Drainer interface {
	Drain(ctx context.Context) error
}
