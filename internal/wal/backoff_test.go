package wal

import (
	"errors"
	"testing"
	"time"

	"pwsr/internal/fault"
	"pwsr/internal/txn"
)

// TestRetryBackoffJitterCapped pins the retry-backoff contract: the
// linear ramp is capped at RetryBackoffMax and the sleep is jittered
// into [d/2, d] — a deep retry attempt must sleep at least half the
// cap (time.Sleep never undershoots) and must not sleep anywhere near
// the uncapped linear value.
func TestRetryBackoffJitterCapped(t *testing.T) {
	mem := NewMemBackend()
	w, err := NewWriter(mem, Options{
		GroupEvery:      1,
		SnapshotEvery:   -1,
		RetryBackoff:    20 * time.Millisecond,
		RetryBackoffMax: 320 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Attempt 100 would ramp to 20ms×101 ≈ 2s uncapped; the cap holds
	// it to [160ms, 320ms].
	w.mu.Lock()
	start := time.Now()
	w.backoff(100)
	w.mu.Unlock()
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("capped backoff slept %v, want ≥ ~160ms (half the cap)", elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("capped backoff slept %v — the 320ms cap did not apply", elapsed)
	}
}

// TestCloseInterruptsBackoff pins the shutdown contract: a writer
// sleeping out a retry schedule against a dead backend must wake the
// moment Close is called — fail fast wrapping ErrWriterClosing — not
// hold Close behind the remaining jittered sleeps (five retries at a
// 2s base would otherwise stall shutdown for tens of seconds).
func TestCloseInterruptsBackoff(t *testing.T) {
	// From 1: the device dies right after construction, so the first
	// flush (genesis header plus the first record) never lands.
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "wal/dev", Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError, Msg: "device dead"},
	}})
	b := NewInjectBackend(NewMemBackend(), inj, "wal/dev")
	w, err := NewWriter(b, Options{
		GroupEvery:   1,
		MaxRetries:   5,
		RetryBackoff: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		w.LogObserve(txn.R(1, "a", 1)) // first flush hits the dead device and enters the retry schedule
		err := w.Barrier()
		done <- result{err, time.Since(start)}
	}()

	time.Sleep(50 * time.Millisecond)
	w.Close()

	select {
	case r := <-done:
		if r.elapsed > 3*time.Second {
			t.Fatalf("stalled write returned after %v — Close did not interrupt the backoff", r.elapsed)
		}
		if r.err == nil {
			t.Fatal("write against a dead device reported success")
		}
		if !errors.Is(r.err, ErrWriterClosing) {
			t.Fatalf("interrupted write error = %v, want ErrWriterClosing in the chain", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled write never returned — Close blocked behind the full backoff schedule")
	}
}

// TestRetryBackoffMaxNormalization pins the Options.RetryBackoffMax
// defaulting: zero selects 16× the base, negative disables the cap,
// positive is taken as-is.
func TestRetryBackoffMaxNormalization(t *testing.T) {
	cases := []struct {
		base, max, want time.Duration
	}{
		{10 * time.Millisecond, 0, 160 * time.Millisecond},
		{10 * time.Millisecond, -1, 0},
		{10 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond},
	}
	for _, c := range cases {
		o := Options{RetryBackoff: c.base, RetryBackoffMax: c.max}
		if got := o.retryBackoffMax(); got != c.want {
			t.Errorf("retryBackoffMax(base=%v, max=%v) = %v, want %v", c.base, c.max, got, c.want)
		}
	}
}
