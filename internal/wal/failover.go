package wal

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Promoter is the optional backend surface the writer's failover path
// speaks: a backend that can demote its failed target and switch to a
// standby. FailoverBackend implements it; a plain backend (no
// Promoter) keeps the original fail-stop behavior. To inject faults
// into individual chain members, wrap each member in its own
// InjectBackend (with a distinct site) before chaining — wrapping the
// FailoverBackend itself would hide Promote from the writer.
type Promoter interface {
	// Promote demotes the current target and switches to the next
	// standby, recording both in the event stream. It returns an error
	// when the chain is exhausted; cause is the failure that forced the
	// switch.
	Promote(cause error) error
}

// FailoverEvent is one entry of the failover backend's sticky
// demotion/promotion stream.
type FailoverEvent struct {
	// Kind is "demoted" or "promoted".
	Kind string
	// Backend is the chain index the event applies to (0 = primary).
	Backend int
	// Cause is the rendered error that forced the switch.
	Cause string
}

// FailoverBackend chains an ordered list of backends — a primary and
// its standbys — behind the Backend interface. All traffic goes to the
// current chain member; when the writer's retry budget on it is
// exhausted, Promote latches the demotion and advances to the next
// standby, and the writer resyncs the standby by replaying the
// surviving snapshot plus the active segment's suffix (its in-memory
// mirror) before acknowledging anything further. Demotion is sticky:
// the chain never falls back to an earlier member on its own; a
// recovered earlier member is only re-used by building a fresh chain.
type FailoverBackend struct {
	mu     sync.Mutex
	chain  []Backend
	cur    int
	events []FailoverEvent
}

// NewFailoverBackend chains primary and standbys in failover order.
func NewFailoverBackend(primary Backend, standbys ...Backend) *FailoverBackend {
	chain := make([]Backend, 0, 1+len(standbys))
	chain = append(chain, primary)
	chain = append(chain, standbys...)
	return &FailoverBackend{chain: chain}
}

// target returns the current chain member.
func (b *FailoverBackend) target() Backend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chain[b.cur]
}

// Create implements Backend on the current chain member.
func (b *FailoverBackend) Create(name string) (File, error) { return b.target().Create(name) }

// Open implements Backend on the current chain member.
func (b *FailoverBackend) Open(name string) (io.ReadCloser, error) { return b.target().Open(name) }

// List implements Backend on the current chain member.
func (b *FailoverBackend) List() ([]string, error) { return b.target().List() }

// Remove implements Backend on the current chain member.
func (b *FailoverBackend) Remove(name string) error { return b.target().Remove(name) }

// Promote implements Promoter.
func (b *FailoverBackend) Promote(cause error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	if b.cur+1 >= len(b.chain) {
		return fmt.Errorf("wal: failover chain exhausted after backend %d of %d: %v", b.cur+1, len(b.chain), cause)
	}
	b.events = append(b.events,
		FailoverEvent{Kind: "demoted", Backend: b.cur, Cause: msg},
		FailoverEvent{Kind: "promoted", Backend: b.cur + 1, Cause: msg},
	)
	b.cur++
	return nil
}

// Current returns the index of the active chain member (0 = primary).
func (b *FailoverBackend) Current() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// Events returns a copy of the sticky demotion/promotion stream.
func (b *FailoverBackend) Events() []FailoverEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]FailoverEvent, len(b.events))
	copy(out, b.events)
	return out
}

// failoverLocked is the writer's response to a target that failed past
// the retry bound: if the backend can promote a standby, the active
// segment is re-established on it (rebaseLocked) and the writer
// continues; a standby that itself fails during the resync is promoted
// past in turn. Only when the backend has no Promoter, or the chain is
// exhausted, does the writer latch the sticky fail-stop. Callers hold
// opMu and mu.
func (w *Writer) failoverLocked(cause error) {
	p, ok := w.b.(Promoter)
	if !ok {
		w.failLocked(cause)
		return
	}
	for {
		if perr := p.Promote(cause); perr != nil {
			w.failLocked(fmt.Errorf("%w; failover: %v", cause, perr))
			return
		}
		err := w.rebaseLocked()
		if err == nil {
			w.stats.Failovers++
			return
		}
		cause = fmt.Errorf("resync after failover: %w", err)
	}
}

// rebaseLocked re-establishes the active segment on the backend's
// current target by replaying the in-memory mirror — the surviving
// snapshot (or genesis header) plus every appended frame — into a
// fresh copy of the same segment name, then syncing it. The result is
// byte-identical to what the failed target was supposed to hold, so
// recovery from the new target needs no new reasoning: compact-point
// cuts and strict sequence continuity hold by construction. The group
// window restarts empty (the mirror subsumes every pending frame).
// Callers hold opMu and mu.
func (w *Writer) rebaseLocked() error {
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	f, err := w.b.Create(segName(w.segIndex))
	if err != nil {
		return err
	}
	err = w.writeAllTo(f, w.mirror)
	if err == nil {
		err = w.syncTo(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.stats.LogBytes += int64(len(w.mirror))
	w.flushed = len(w.mirror)
	w.commits = 0
	w.lastSync = time.Now()
	return nil
}

// Heal attempts to clear a fail-stop after the backend recovered
// (e.g. a transient outage that outlasted the retry budget): the
// active segment is rebuilt on the current target from the mirror,
// which holds every event the writer absorbed, and on success the
// sticky error is cleared. Events emitted while fail-stopped were not
// absorbed and did not advance the sequence, so a caller that wants
// them logged re-feeds them and the log has no gap.
// Healing a healthy writer is a no-op; a target that is still failing
// leaves the fail-stop in place and returns it.
func (w *Writer) Heal() error {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		return nil
	}
	if err := w.rebaseLocked(); err != nil {
		return w.err
	}
	w.err = nil
	w.stats.Heals++
	return nil
}

// LoggedSeq returns the sequence number of the last event absorbed
// into the active segment's mirror: everything up to it is either
// durable or will be made durable by the next successful flush,
// failover rebase, or Heal. Every append is absorbed — a record is in
// the mirror before any backend I/O can fail — so LoggedSeq equals
// Seq; an event emitted during a fail-stop advances neither.
func (w *Writer) LoggedSeq() uint64 { return w.Seq() }
