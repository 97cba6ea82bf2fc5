package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"pwsr/internal/exec"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

func drainPartition() []state.ItemSet {
	return []state.ItemSet{state.NewItemSet("a", "b", "c")}
}

// TestDrainCommittedResidentsDontBlock pins the in-flight/resident
// distinction: committed transactions stay monitor-resident until a
// compaction reclaims them, and a drain must not wait on them — only
// uncommitted work is in-flight. Pre-fix this spun to the deadline on
// a gate whose every transaction had already committed.
func TestDrainCommittedResidentsDontBlock(t *testing.T) {
	w, err := wal.NewWriter(wal.NewMemBackend(), wal.Options{GroupEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := NewOptimisticCertify(drainPartition(), &Serial{}, nil)
	gate.AttachJournal(w)
	for i := 1; i <= 3; i++ {
		if err := gate.AdmitTxn([]txn.Op{txn.W(i, "a", int64(i))}); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
	}
	if live := gate.Monitor().LiveTxnIDs(); len(live) == 0 {
		t.Fatal("committed admissions not resident — the test is vacuous")
	}
	before := w.Stats().Snapshots

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := gate.Drain(ctx); err != nil {
		t.Fatalf("drain of a fully-committed gate: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("drain consumed the whole deadline waiting on committed residents")
	}
	if got := w.Stats().Snapshots; got <= before {
		t.Fatalf("clean drain cut no snapshot (snapshots %d -> %d)", before, got)
	}
	if h := gate.Health(); !h.Draining {
		t.Fatalf("post-drain health does not surface draining: %+v", h)
	}
	if err := gate.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// TestDrainWaitsForInFlight pins the drain's wait: it blocks while
// uncommitted transactions are live and completes as soon as they
// settle — here through the same TxnCanceled retraction path an engine
// cancellation takes.
func TestDrainWaitsForInFlight(t *testing.T) {
	gate := NewOptimisticCertify(drainPartition(), &Serial{}, nil)
	gate.Monitor().Observe(txn.R(1, "a", 0))
	gate.Monitor().Observe(txn.R(2, "b", 0))

	go func() {
		time.Sleep(20 * time.Millisecond)
		gate.TxnCanceled(1, nil)
		gate.TxnCanceled(2, nil)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := gate.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("drain returned in %v — it did not wait for the in-flight transactions", elapsed)
	}
	if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
		t.Fatalf("drain left in-flight transactions: %v", live)
	}
	if !gate.Monitor().PWSR() {
		t.Fatal("verdict violated by drain")
	}
}

// TestDrainDeadlineTyped pins the deadline contract: a drain whose
// in-flight transactions never settle retracts the remainder at the
// context deadline and returns a typed exec.ErrDeadline — never a
// denial — leaving the gate refusing fresh admissions with
// exec.ErrDraining.
func TestDrainDeadlineTyped(t *testing.T) {
	gate := NewOptimisticCertify(drainPartition(), nil, nil)
	gate.Monitor().Observe(txn.R(7, "a", 0))

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	err := gate.Drain(ctx)
	if err == nil {
		t.Fatal("drain of a stuck transaction returned nil")
	}
	if !errors.Is(err, exec.ErrDeadline) {
		t.Fatalf("drain error = %v, want exec.ErrDeadline", err)
	}
	if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
		t.Fatalf("deadline drain left in-flight transactions: %v", live)
	}
	if aerr := gate.AdmitTxn([]txn.Op{txn.W(8, "b", 1)}); !errors.Is(aerr, exec.ErrDraining) {
		t.Fatalf("post-drain admission = %v, want exec.ErrDraining", aerr)
	}
	if h := gate.Health(); !h.Draining || h.Closed {
		t.Fatalf("post-drain health posture wrong: %+v", h)
	}
}

// TestDrainCanceledRetractsAtOnce pins a drain under an
// already-cancelled context: in-flight transactions are retracted
// immediately, the verdict holds, and the drain returns
// exec.ErrCanceled without waiting.
func TestDrainCanceledRetractsAtOnce(t *testing.T) {
	gate := NewOptimisticCertify(drainPartition(), &Serial{}, nil)
	gate.Monitor().Observe(txn.R(1, "a", 0))
	gate.Monitor().Observe(txn.W(2, "b", 1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := gate.Drain(ctx); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("cancelled drain = %v, want exec.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled drain waited %v", elapsed)
	}
	if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
		t.Fatalf("cancelled drain left in-flight transactions: %v", live)
	}
	if !gate.Monitor().PWSR() {
		t.Fatal("verdict violated by cancelled drain")
	}
}

// TestCloseIdempotentAndTerminal pins Close: idempotent, and every
// admission path afterwards refuses with exec.ErrGateClosed — as does
// a late Drain.
func TestCloseIdempotentAndTerminal(t *testing.T) {
	gate := NewOptimisticCertify(drainPartition(), nil, nil)
	if err := gate.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := gate.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := gate.AdmitTxn([]txn.Op{txn.W(1, "a", 1)}); !errors.Is(err, exec.ErrGateClosed) {
		t.Fatalf("post-close admission = %v, want exec.ErrGateClosed", err)
	}
	if err := gate.Drain(context.Background()); !errors.Is(err, exec.ErrGateClosed) {
		t.Fatalf("post-close drain = %v, want exec.ErrGateClosed", err)
	}
	if h := gate.Health(); !h.Closed {
		t.Fatalf("post-close health does not surface closed: %+v", h)
	}
}
