// Package fault is the deterministic fault-injection plane: a seeded,
// schedule-deterministic injector that any layer consults at its
// injection points (backend writes and syncs, gate ticks, commit
// turns, drain steps) to decide whether this particular occurrence
// fails, stalls, or tears.
//
// The model is counter-based, not time-based: every injection point is
// identified by a (site, op) pair, and the injector keeps one
// occurrence counter per pair. A Rule matches a half-open occurrence
// window [From, From+Count) on its pair — "the 3rd through 5th sync on
// site wal/primary" — so a plan replays identically on every run that
// issues the same operation sequence, regardless of wall-clock timing
// or GOMAXPROCS. Persistent rules (Count ≤ 0) never stop matching:
// they model a dead device rather than a glitch.
//
// Plans are plain data (JSON round-trippable), so a failing trial can
// dump its plan as an artifact. Only a cancel trial replays from that
// JSON (experiments.RunCancelCase); a chaos trial replays from its seed,
// and its dumped plan is for reading.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Op names the class of operation an injection point represents.
type Op string

const (
	// OpWrite is a backend segment write.
	OpWrite Op = "write"
	// OpSync is a backend segment fsync.
	OpSync Op = "sync"
	// OpTick is a scheduler gate tick (one Pick call).
	OpTick Op = "tick"
	// OpCommit is a block-parallel engine commit turn.
	OpCommit Op = "commit"
	// OpDrain is one step of a gate's Drain loop (waiting out in-flight
	// transactions or flushing the journal).
	OpDrain Op = "drain"
)

// Kind is what happens when a rule fires.
type Kind string

const (
	// KindError fails the operation outright (no partial effect).
	KindError Kind = "error"
	// KindLatency delays the operation, then lets it proceed.
	KindLatency Kind = "latency"
	// KindTorn fails a write after a prefix of the chunk was accepted —
	// the torn-write model (meaningful only for OpWrite; other ops
	// treat it as KindError).
	KindTorn Kind = "torn"
	// KindCancel invokes the injector's registered cancel callback
	// (SetCancel) at exactly this occurrence and lets the operation
	// proceed — the deterministic cancellation point the cancel
	// differential sweeps across admissions, journal writes, commit
	// turns, and drain steps. With no callback registered the rule is
	// inert.
	KindCancel Kind = "cancel"
)

// ErrInjected is the base error injected faults wrap, so tests can
// errors.Is-distinguish an injected failure from a real one.
var ErrInjected = errors.New("fault: injected")

// Rule is one fault: it fires on occurrences [From, From+Count) of Op
// at Site (1-based; From ≤ 0 means 1). Count ≤ 0 makes the rule
// persistent — it fires on every occurrence from From onward.
type Rule struct {
	// Site selects the injection point's site label ("" = any site).
	Site string `json:"site,omitempty"`
	// Op selects the operation class ("" = any op).
	Op Op `json:"op,omitempty"`
	// From is the first occurrence (1-based) the rule fires on.
	From int64 `json:"from"`
	// Count is how many occurrences the rule fires on; ≤ 0 = persistent.
	Count int64 `json:"count"`
	// Kind is the fault's effect (default KindError).
	Kind Kind `json:"kind,omitempty"`
	// Latency is the injected delay for KindLatency (and, when set on
	// other kinds, a delay applied before the failure).
	Latency time.Duration `json:"latency_ns,omitempty"`
	// TornBytes is the accepted prefix for KindTorn: > 0 is an absolute
	// byte count, 0 tears the chunk in half.
	TornBytes int `json:"torn_bytes,omitempty"`
	// File, when non-empty, restricts the rule to points on this file
	// (segment name).
	File string `json:"file,omitempty"`
	// ExceptFile, when non-empty, restricts the rule to points NOT on
	// this file.
	ExceptFile string `json:"except_file,omitempty"`
	// Msg is an optional label woven into the injected error text.
	Msg string `json:"msg,omitempty"`
}

// matches reports whether the rule covers point p at occurrence n.
func (r *Rule) matches(p Point, n int64) bool {
	if r.Site != "" && r.Site != p.Site {
		return false
	}
	if r.Op != "" && r.Op != p.Op {
		return false
	}
	if r.File != "" && r.File != p.File {
		return false
	}
	if r.ExceptFile != "" && r.ExceptFile == p.File {
		return false
	}
	from := r.From
	if from <= 0 {
		from = 1
	}
	if n < from {
		return false
	}
	return r.Count <= 0 || n < from+r.Count
}

// Persistent reports whether the rule models a permanent failure
// (fires forever once reached) rather than a transient glitch.
// Cancellation rules are never persistent: a cancel latches a context,
// it does not keep a device down.
func (r *Rule) Persistent() bool {
	return r.Count <= 0 && r.Kind != KindLatency && r.Kind != KindCancel
}

// Plan is a reproducible fault schedule: the seed that generated it
// (informational) plus its rules. The zero value injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Transient reports whether every rule in the plan is transient
// (latency, or error/torn with a bounded occurrence window) — the
// liveness side of the chaos differential: a transient-only plan must
// always drain to completion.
func (p Plan) Transient() bool {
	for i := range p.Rules {
		if p.Rules[i].Persistent() {
			return false
		}
	}
	return true
}

// Point identifies one occurrence of an injectable operation.
type Point struct {
	// Site is the layer-chosen site label (e.g. "wal/primary", "gate").
	Site string
	// Op is the operation class.
	Op Op
	// File is the segment name for backend points ("" elsewhere).
	File string
}

// Decision is the injector's verdict for one occurrence.
type Decision struct {
	// Err is the fault to surface (nil = proceed normally).
	Err error
	// Latency is how long to stall before proceeding or failing.
	Latency time.Duration
	// Accept is the accepted prefix length for a torn write (only
	// meaningful when Err != nil on an OpWrite point; -1 = accept half
	// the chunk).
	Accept int
}

// Injector is the registry the layers consult: it holds a plan plus
// the per-(site, op) occurrence counters that make evaluation
// schedule-deterministic. Methods are safe for concurrent use; points
// issued from a single goroutine (the WAL feed, a gate's tick loop)
// see strictly increasing occurrence numbers.
type Injector struct {
	mu      sync.Mutex
	plan    Plan
	counts  map[Point]int64 // keyed with File stripped: occurrences per (site, op)
	fired   int64
	firedAt map[Point]int64 // error decisions per (site, op)

	// cancel is the callback KindCancel rules invoke (see SetCancel);
	// canceledAt counts cancel firings per (site, op).
	cancel     func()
	canceledAt map[Point]int64
}

// NewInjector returns an injector evaluating plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{
		plan:       plan,
		counts:     make(map[Point]int64),
		firedAt:    make(map[Point]int64),
		canceledAt: make(map[Point]int64),
	}
}

// SetCancel registers the callback KindCancel rules invoke when they
// fire — typically a context.CancelFunc, so a plan can cancel a run at
// an exact (site, op, occurrence) point. The callback must be safe to
// invoke more than once and must not call back into the injector.
func (in *Injector) SetCancel(fn func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cancel = fn
}

// FiredCancels returns how many KindCancel rules fired at (site, op) —
// the probe a differential uses to learn whether a cancel point was
// ever reached.
func (in *Injector) FiredCancels(site string, op Op) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.canceledAt[Point{Site: site, Op: op}]
}

// Fired returns how many decisions carried an injected fault (error or
// latency) so far.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// FiredErrors returns how many decisions at (site, op) carried an
// injected error (latency-only firings are not counted) — the probe a
// differential uses to learn whether a rule's window was ever reached.
func (in *Injector) FiredErrors(site string, op Op) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.firedAt[Point{Site: site, Op: op}]
}

// Eval advances the (site, op) occurrence counter for p and returns
// the fault decision for this occurrence. The caller applies it:
// sleep Decision.Latency, then fail with Decision.Err (honoring
// Decision.Accept for writes) or proceed.
func (in *Injector) Eval(p Point) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	key := Point{Site: p.Site, Op: p.Op}
	in.counts[key]++
	n := in.counts[key]
	var d Decision
	canceled := false
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.matches(p, n) {
			continue
		}
		if r.Latency > d.Latency {
			d.Latency = r.Latency
		}
		if r.Kind == KindCancel {
			// Cancellation is a side effect, not a failure: fire the
			// callback and let the operation itself proceed untouched.
			canceled = true
			continue
		}
		if r.Kind == KindLatency || d.Err != nil {
			continue // latency rules compose; the first failing rule wins
		}
		d.Err = injectedError(p, n, r)
		if r.Kind == KindTorn {
			if r.TornBytes > 0 {
				d.Accept = r.TornBytes
			} else {
				d.Accept = -1
			}
		}
	}
	if canceled {
		in.canceledAt[key]++
		if in.cancel != nil {
			in.cancel()
		}
	}
	if d.Err != nil || d.Latency > 0 || canceled {
		in.fired++
	}
	if d.Err != nil {
		in.firedAt[key]++
	}
	return d
}

// injectedError builds the surfaced error for a fired rule.
func injectedError(p Point, n int64, r *Rule) error {
	if r.Msg != "" {
		return fmt.Errorf("%w: %s %s #%d (%s)", ErrInjected, p.Site, p.Op, n, r.Msg)
	}
	return fmt.Errorf("%w: %s %s #%d", ErrInjected, p.Site, p.Op, n)
}
