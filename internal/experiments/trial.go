package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// This file is the one trial harness behind the two robustness
// differentials. A trial is a seed, a pipeline leg and a fault plan: it
// builds the journaled pipeline (trialRun), runs it, checks the
// differential's obligations, and ends with one journal check
// (checkJournal): the gate's certifier, recovery from the backend and,
// for cancel trials, wal.Resume agree with the absorbed event stream.
//
// ROBUST1, chaos (RunChaosTrial): randomized fault plans at backend
// writes and syncs, gate ticks and engine commit turns, every run
// lockstep-compared against an uninjected twin.
//   - Safety: a run that completes under faults produces the exact
//     schedule, final state and certifier verdict of its fault-free
//     twin, and every acknowledged admission is durable.
//   - Typed degradation: a run that cannot complete surfaces
//     exec.ErrJournalDown — never a silent wrong answer or a bare stall.
//   - Liveness: a plan whose rules are all transient always completes.
//
// ROBUST2, cancel (RunCancelTrial, RunCancelCase): one deterministic
// cancellation (fault.KindCancel) at a gate admission tick, a journal
// write or sync, a batch commit turn, or a drain step.
//   - Typed: a cancelled run surfaces exec.ErrCanceled (a drain past its
//     deadline, exec.ErrDeadline) — never a certification denial.
//   - No partial grant: the surviving schedule replays PWSR and no
//     transaction stays in flight (cancel equals abort).
//   - No lost journaled admission: the journal check, Resume included.
//
// A seed fully determines a trial. A chaos trial replays from its seed
// alone; the plan its failure dumps is for reading. A cancel Trial also
// replays from its JSON: TestCancelMatrix dumps
// cancel-failed-<seed>.json, and TestCancelReplay replays every trial
// under testdata/cancel.

// Trial is one replayable trial: the seed that derives the workload
// and journal, the pipeline leg, and the fault plan.
type Trial struct {
	Seed int64 `json:"seed"`
	// Leg is "tick" (tick engine + optimistic gate), "batch"
	// (block-parallel engine + batch admission), or, for cancel trials,
	// "drain" (a gate with planted live transactions drained under a
	// deadline).
	Leg  string     `json:"leg"`
	Plan fault.Plan `json:"plan"`
}

// TrialRecord is one trial's summary.
type TrialRecord struct {
	Trial
	// Case names a chaos trial's fault shape (one of chaosCases); it is
	// empty for a cancel trial.
	Case string
	// Outcome is "completed" (the run finished: a cancel trial's armed
	// point was never reached), "degraded" (a chaos run refused with
	// exec.ErrJournalDown), "canceled" (the run surfaced the typed
	// cancel error), or, for the drain leg, "deadline" (the drain
	// expired and retracted the remainder).
	Outcome string
	// Fired counts fault decisions (cancels included) that fired.
	Fired int64
	// Events is the absorbed lifecycle-event count; RecoveredSeq is the
	// durable prefix recovery found.
	Events       int
	RecoveredSeq uint64
}

// fail returns the record with a *TrialFailure for its trial.
func (rec TrialRecord) fail(format string, args ...any) (TrialRecord, error) {
	return rec, &TrialFailure{Trial: rec.Trial, Reason: fmt.Sprintf(format, args...)}
}

// TrialFailure is a failed trial: the trial and the violated obligation.
type TrialFailure struct {
	Trial
	Reason string `json:"reason"`
}

// Error implements error.
func (f *TrialFailure) Error() string {
	return fmt.Sprintf("trial seed %d leg %s: %s", f.Seed, f.Leg, f.Reason)
}

// JSON renders the failure as indented JSON: the CI artifact's payload
// and, for a cancel trial, the format of testdata/cancel.
func (f *TrialFailure) JSON() []byte {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{%q: %q}", "marshal_error", err.Error()))
	}
	return append(data, '\n')
}

// recordingJournal wraps the wal writer as the gate's journal and
// records every lifecycle event the writer absorbs (Seq advanced), in
// absorption order. The recorded stream is the trial's durability
// oracle: any durable prefix recovery finds must replay to the same
// certifier state as the stream's own prefix. Events the writer
// refused (fail-stop, un-absorbed appends) are not recorded.
type recordingJournal struct {
	w      *wal.Writer
	events []core.Event
}

func (r *recordingJournal) absorb(ev core.Event, emit func()) {
	before := r.w.Seq()
	emit()
	if r.w.Seq() > before {
		r.events = append(r.events, ev)
	}
}

// LogObserve implements core.LifecycleSink.
func (r *recordingJournal) LogObserve(o txn.Op) {
	r.absorb(core.Event{Kind: core.EventObserve, Op: o}, func() { r.w.LogObserve(o) })
}

// LogCommit implements core.LifecycleSink.
func (r *recordingJournal) LogCommit(txnID int) {
	r.absorb(core.Event{Kind: core.EventCommit, Txn: txnID}, func() { r.w.LogCommit(txnID) })
}

// LogRetract implements core.LifecycleSink.
func (r *recordingJournal) LogRetract(txnID int) {
	r.absorb(core.Event{Kind: core.EventRetract, Txn: txnID}, func() { r.w.LogRetract(txnID) })
}

// LogCompact implements core.LifecycleSink.
func (r *recordingJournal) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	r.absorb(core.Event{Kind: core.EventCompact}, func() { r.w.LogCompact(reclaimed, stats, ops) })
}

// The rest of sched.Journal forwards to the writer, so a gate
// barriers, syncs, reports, cuts its drain snapshot and closes through
// the tap.
func (r *recordingJournal) Barrier() error     { return r.w.Barrier() }
func (r *recordingJournal) Sync() error        { return r.w.Sync() }
func (r *recordingJournal) Stats() wal.Stats   { return r.w.Stats() }
func (r *recordingJournal) CutSnapshot() error { return r.w.CutSnapshot() }
func (r *recordingJournal) Close() error       { return r.w.Close() }

// sameCertState compares everything a verdict depends on.
func sameCertState(ctx string, got, want *core.Monitor, conjuncts int) error {
	if g, w := got.PWSR(), want.PWSR(); g != w {
		return fmt.Errorf("%s: PWSR=%v, want %v", ctx, g, w)
	}
	if g, w := got.Ops(), want.Ops(); g != w {
		return fmt.Errorf("%s: Ops=%d, want %d", ctx, g, w)
	}
	if g, w := got.LiveTxnIDs(), want.LiveTxnIDs(); !slices.Equal(g, w) {
		return fmt.Errorf("%s: LiveTxnIDs=%v, want %v", ctx, g, w)
	}
	if gs, ws := got.CompactStats(), want.CompactStats(); gs != ws {
		return fmt.Errorf("%s: CompactStats=%+v, want %+v", ctx, gs, ws)
	}
	for e := 0; e < conjuncts; e++ {
		if ge, we := got.ConflictEdges(e), want.ConflictEdges(e); !slices.Equal(ge, we) {
			return fmt.Errorf("%s: conjunct %d edges=%v, want %v", ctx, e, ge, we)
		}
	}
	return nil
}

// replayReference replays an absorbed-event prefix onto a fresh
// monitor through the public mutation API — deliberately not
// core.Recover, so recovery and reference are independent replay
// paths.
func replayReference(partition []state.ItemSet, events []core.Event) *core.Monitor {
	m := core.NewMonitor(partition)
	m.SetAutoCompact(0)
	for _, ev := range events {
		switch ev.Kind {
		case core.EventObserve:
			m.Observe(ev.Op)
		case core.EventCommit:
			m.Commit(ev.Txn)
		case core.EventRetract:
			m.Retract(ev.Txn)
		case core.EventCompact:
			m.Compact()
		}
	}
	return m
}

// trialWorkload draws the trial's generated workload.
func trialWorkload(rng *rand.Rand, seed int64) *gen.Workload {
	return gen.MustGenerate(gen.Config{
		Conjuncts:       2 + rng.Intn(2),
		Programs:        4 + rng.Intn(3),
		MovesPerProgram: 2 + rng.Intn(2),
		Style:           gen.Style(rng.Intn(3)),
		Seed:            seed,
	})
}

// trialRun is one trial's pipeline: the workload, the plan's injector,
// the journal stack — an in-memory backend behind the "wal/primary"
// injection site, carrying the writer behind the recording tap — and
// the leg's one drawn parameter.
type trialRun struct {
	Trial
	w       *gen.Workload
	inj     *fault.Injector
	b       wal.Backend
	tap     *recordingJournal
	inner   int64 // the tick leg's inner-policy seed
	workers int   // the batch leg's worker count
}

// newTrialRun builds the injected journal stack, drawing from rng the
// snapshot cadence and then the leg's parameter. The plan's
// KindCancel rules fire cancel (inert when nil).
func newTrialRun(t Trial, w *gen.Workload, rng *rand.Rand, cancel func()) (*trialRun, error) {
	r := &trialRun{Trial: t, w: w, inj: fault.NewInjector(t.Plan)}
	r.inj.SetCancel(cancel)
	r.b = wal.NewInjectBackend(wal.NewMemBackend(), r.inj, "wal/primary")
	snapEvery := 0
	if rng.Intn(2) == 0 {
		snapEvery = 2 + rng.Intn(3)
	}
	jw, err := wal.NewWriter(r.b, wal.Options{GroupEvery: 1, SnapshotEvery: snapEvery, MaxRetries: 1})
	if err != nil {
		return nil, err
	}
	r.tap = &recordingJournal{w: jw}
	switch t.Leg {
	case "tick":
		r.inner = int64(rng.Int31())
	case "batch":
		r.workers = 2 + rng.Intn(3)
	}
	return r, nil
}

// gate returns a fresh monitor and the certification gate over it. An
// injected gate journals through the tap and, off the batch leg, takes
// the plan's tick and drain faults at site "gate".
func (r *trialRun) gate(injected bool) (*core.Monitor, *sched.OptimisticCertify) {
	mon := core.NewMonitor(r.w.DataSets)
	var inner exec.Policy = &sched.Serial{}
	if r.Leg == "tick" {
		inner = sched.NewRandom(r.inner)
	}
	gate := sched.NewOptimisticCertifyOver(mon, inner, nil)
	if injected {
		gate.AttachJournal(r.tap)
		if r.Leg != "batch" {
			gate.SetFaultInjector(r.inj, "gate")
		}
	}
	return mon, gate
}

// run executes the workload on the leg's engine, injected (the batch
// engine's commit turns at site "engine") or as the uninjected twin,
// and returns the result, the gate's monitor and health, and the run's
// error. workers is the batch engine's width.
func (r *trialRun) run(ctx context.Context, injected bool, workers int) (*exec.Result, *core.Monitor, exec.Health, error) {
	mon, gate := r.gate(injected)
	var res *exec.Result
	var err error
	if r.Leg == "batch" {
		eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: r.w.Initial, Gate: gate, Workers: workers})
		if injected {
			eng.SetFaultInjector(r.inj, "engine")
		}
		res, err = eng.ExecuteBatchCtx(ctx, r.w.Programs)
	} else {
		res, err = exec.RunCtx(ctx, exec.Config{
			Programs: r.w.Programs, Initial: r.w.Initial, Policy: gate, DataSets: r.w.DataSets,
		})
	}
	return res, mon, gate.Health(), err
}

// checkJournal closes a trial and returns the recovered sequence. With
// a healthy journal, the gate's monitor equals a fresh replay of the
// whole absorbed stream, and the whole stream is durable. Whatever
// recovery finds on the backend replays to the identical certifier
// state as the absorbed stream cut at the same sequence. With resume,
// wal.Resume rebuilds that state too, plus the one Compact pass Resume
// runs before cutting its baseline.
func (r *trialRun) checkJournal(mon *core.Monitor, healthy, resume bool) (uint64, error) {
	events, conjuncts := r.tap.events, len(r.w.DataSets)
	if healthy {
		ref := replayReference(r.w.DataSets, events)
		if err := sameCertState("settled gate vs absorbed replay", mon, ref, conjuncts); err != nil {
			return 0, err
		}
	}
	if r.tap.Barrier() == nil {
		if err := r.tap.Close(); err != nil {
			return 0, fmt.Errorf("close after healthy run: %v", err)
		}
	}
	m, info, err := wal.Recover(r.b, r.w.DataSets)
	if err != nil {
		return 0, fmt.Errorf("recovery from the backend: %v", err)
	}
	seq := info.LastSeq
	if seq > uint64(len(events)) {
		return seq, fmt.Errorf("recovered %d events but only %d were absorbed", seq, len(events))
	}
	if healthy && seq != uint64(len(events)) {
		return seq, fmt.Errorf("acknowledged admissions not durable: recovered seq %d, absorbed %d", seq, len(events))
	}
	if err := sameCertState("recovered vs reference replay", m, replayReference(r.w.DataSets, events[:seq]), conjuncts); err != nil {
		return seq, err
	}
	if !resume {
		return seq, nil
	}
	m, w2, info, err := wal.Resume(r.b, r.w.DataSets, wal.Options{})
	if err != nil {
		return seq, fmt.Errorf("resume from the backend: %v", err)
	}
	defer w2.Close()
	if info.LastSeq > uint64(len(events)) {
		return seq, fmt.Errorf("resume recovered %d events but only %d were absorbed", info.LastSeq, len(events))
	}
	ref := replayReference(r.w.DataSets, events[:info.LastSeq])
	ref.Compact() // Resume compacts once before cutting its baseline
	return seq, sameCertState("resumed monitor vs reference replay", m, ref, conjuncts)
}

// chaosCases are the fault shapes the chaos plan generator draws from.
var chaosCases = []string{"clean", "transient-primary", "persistent-primary", "total-outage"}

// chaosPlan builds a chaos trial's fault plan for the drawn case.
// The generator respects the liveness obligations the writer's budgets
// actually provide, so "transient plan ⇒ run drains" is a theorem the
// differential can assert rather than a hope:
//
//   - Tick faults are always transient (a skipped tick re-picks the
//     same pending set; a persistent tick fault is pure starvation).
//   - Transient sync and write/torn glitches stay within the writer's
//     retry budget (maxRetries = 1 ⇒ windows of 1): the one retry
//     re-syncs, or writes the remainder of a torn or failed write. A
//     write/torn glitch is drawn at most once per trial.
//   - Persistent faults start From ≥ 3 (genesis always succeeds; the
//     trial starts). Once one fires the writer fail-stops, since there
//     is no second device.
func chaosPlan(rng *rand.Rand, caseName string, withCommit bool) fault.Plan {
	var rules []fault.Rule
	// glitches draws up to two short error or latency windows at a site.
	glitches := func(site string, op fault.Op, span, latencyOdds int, msg string) {
		for n := rng.Intn(3); n > 0; n-- {
			r := fault.Rule{
				Site: site, Op: op,
				From: int64(1 + rng.Intn(span)), Count: int64(1 + rng.Intn(3)),
				Kind: fault.KindError, Msg: msg,
			}
			if rng.Intn(latencyOdds) == 0 {
				r.Kind = fault.KindLatency
				r.Latency = time.Duration(1+rng.Intn(20)) * time.Microsecond
			}
			rules = append(rules, r)
		}
	}
	glitches("gate", fault.OpTick, 12, 2, "")
	if withCommit {
		glitches("engine", fault.OpCommit, 6, 3, "lost attempt")
	}
	switch caseName {
	case "transient-primary":
		// The retry budget (1 retry) absorbs 1-wide sync and write/torn
		// windows.
		rules = append(rules, fault.Rule{
			Site: "wal/primary", Op: fault.OpSync,
			From: int64(3 + rng.Intn(30)), Count: 1,
			Kind: fault.KindError, Msg: "sync glitch",
		})
		if rng.Intn(2) == 0 {
			kind := fault.KindError
			if rng.Intn(2) == 0 {
				kind = fault.KindTorn
			}
			rules = append(rules, fault.Rule{
				Site: "wal/primary", Op: fault.OpWrite,
				From: int64(3 + rng.Intn(30)), Count: 1,
				Kind: kind, Msg: "write glitch",
			})
		}
	case "persistent-primary":
		op := fault.OpSync
		if rng.Intn(2) == 0 {
			op = fault.OpWrite
		}
		rules = append(rules, fault.Rule{
			Site: "wal/primary", Op: op,
			From: int64(3 + rng.Intn(20)), Count: 0,
			Kind: fault.KindError, Msg: "primary dead",
		})
	case "total-outage":
		rules = append(rules, fault.Rule{
			Site: "wal/primary", Op: fault.OpSync,
			From: int64(3 + rng.Intn(10)), Count: 0,
			Kind: fault.KindError, Msg: "primary dead",
		})
	}
	return fault.Plan{Seed: rng.Int63(), Rules: rules}
}

// RunChaosTrial runs one seeded chaos trial end to end and returns its
// record. A non-nil error is always a *TrialFailure: a violated
// safety, liveness, or durability obligation.
func RunChaosTrial(seed int64) (TrialRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	leg := "tick"
	if rng.Intn(5) == 0 {
		leg = "batch"
	}
	caseName := chaosCases[rng.Intn(len(chaosCases))]
	w := trialWorkload(rng, seed)
	rec := TrialRecord{Trial: Trial{Seed: seed, Leg: leg, Plan: chaosPlan(rng, caseName, leg == "batch")}, Case: caseName}
	r, err := newTrialRun(rec.Trial, w, rng, nil)
	if err != nil {
		// Nothing was ever acknowledged, so nothing can be lost — but the
		// generator keeps genesis clean, so reaching this is a generator
		// bug worth failing loudly on.
		return rec.fail("journal construction refused: %v", err)
	}
	twin, twinMon, _, err := r.run(context.TODO(), false, 2)
	if err != nil {
		return rec.fail("uninjected twin failed: %v", err)
	}
	res, mon, health, runErr := r.run(context.TODO(), true, r.workers)
	rec.Fired, rec.Events = r.inj.Fired(), len(r.tap.events)

	switch {
	case runErr == nil:
		if res.Schedule.String() != twin.Schedule.String() {
			return rec.fail("schedule diverged from twin\ninjected: %s\ntwin:     %s", res.Schedule, twin.Schedule)
		}
		if !res.Final.Equal(twin.Final) {
			return rec.fail("final state diverged from twin")
		}
		if err := sameCertState("completed gate vs twin", mon, twinMon, len(w.DataSets)); err != nil {
			return rec.fail("%v", err)
		}
		rec.Outcome = "completed"
		if caseName == "persistent-primary" {
			// The persistent fault may sit beyond the workload's write
			// stream and never fire; a fired one obligates a fail-stop.
			if fired := r.inj.FiredErrors("wal/primary", fault.OpWrite) + r.inj.FiredErrors("wal/primary", fault.OpSync); fired > 0 {
				return rec.fail("persistent primary outage completed (%d faults fired)", fired)
			}
		}
	case errors.Is(runErr, exec.ErrJournalDown):
		if rec.Plan.Transient() {
			return rec.fail("transient-only plan did not drain: %v", runErr)
		}
		rec.Outcome = "degraded"
	default:
		return rec.fail("untyped failure: %v", runErr)
	}
	// A cleanly completed run (journal healthy) must be durable in full.
	if rec.RecoveredSeq, err = r.checkJournal(mon, runErr == nil && health.JournalErr == nil, false); err != nil {
		return rec.fail("%v", err)
	}
	return rec, nil
}

// cancelLegs weights the tick leg double: it has the most distinct
// cancel points (every admission and every journal write).
var cancelLegs = []string{"tick", "tick", "batch", "drain"}

// cancelPoint is one armable (site, op) pair per leg.
type cancelPoint struct {
	site string
	op   fault.Op
	span int // occurrence drawn from [1, span]
}

var cancelPoints = map[string][]cancelPoint{
	"tick":  {{"gate", fault.OpTick, 15}, {"wal/primary", fault.OpWrite, 15}, {"wal/primary", fault.OpSync, 15}},
	"batch": {{"engine", fault.OpCommit, 7}, {"wal/primary", fault.OpWrite, 12}, {"wal/primary", fault.OpSync, 12}},
	"drain": {{"gate", fault.OpDrain, 4}},
}

// RunCancelTrial draws one seeded cancel trial and runs it. A non-nil
// error is always a *TrialFailure.
func RunCancelTrial(seed int64) (TrialRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	leg := cancelLegs[rng.Intn(len(cancelLegs))]
	p := cancelPoints[leg][rng.Intn(len(cancelPoints[leg]))]
	return RunCancelCase(Trial{Seed: seed, Leg: leg, Plan: fault.Plan{Seed: rng.Int63(), Rules: []fault.Rule{{
		Site: p.site, Op: p.op,
		From: int64(1 + rng.Intn(p.span)), Count: 1,
		Kind: fault.KindCancel,
	}}}})
}

// RunCancelCase runs one cancel trial end to end; it also re-runs a
// dumped trial exactly (the workload, inner policy, and journal layout
// are all derived from Seed; the plan carries the armed point). A
// non-nil error is always a *TrialFailure carrying the trial; a trial
// naming an unknown Leg is refused before anything runs.
func RunCancelCase(t Trial) (TrialRecord, error) {
	rec := TrialRecord{Trial: t}
	if _, ok := cancelPoints[t.Leg]; !ok {
		return rec.fail("unknown leg %q", t.Leg)
	}
	rng := rand.New(rand.NewSource(t.Seed))
	w := trialWorkload(rng, t.Seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := newTrialRun(t, w, rng, cancel)
	if err != nil {
		return rec.fail("journal construction refused: %v", err)
	}
	var mon *core.Monitor
	var health exec.Health
	if t.Leg == "drain" {
		mon, health, err = r.drain(ctx, rng, &rec)
	} else {
		mon, health, err = r.cancelRun(ctx, &rec)
	}
	if err == nil {
		// Cancel plans inject no journal faults, so the healthy-journal
		// checks run on every trial.
		rec.RecoveredSeq, err = r.checkJournal(mon, health.JournalErr == nil, true)
	}
	if err != nil {
		return rec.fail("%v", err)
	}
	return rec, nil
}

// cancelRun drives the tick and batch cancel legs: the run ends
// completed or with exec.ErrCanceled, and settles to no in-flight
// transaction, an intact verdict, and a surviving schedule that
// replays PWSR on a fresh monitor.
func (r *trialRun) cancelRun(ctx context.Context, rec *TrialRecord) (*core.Monitor, exec.Health, error) {
	res, mon, health, err := r.run(ctx, true, r.workers)
	rec.Fired, rec.Events = r.inj.Fired(), len(r.tap.events)
	rec.Outcome = "completed"
	if err != nil {
		rec.Outcome = "canceled"
		if !errors.Is(err, exec.ErrCanceled) || errors.Is(err, exec.ErrDeadline) {
			return mon, health, fmt.Errorf("cancelled run surfaced %v, want exec.ErrCanceled", err)
		}
	}
	// Committed-but-unreclaimed residents are fine — compaction owns
	// those.
	if live := mon.InFlightTxnIDs(); len(live) != 0 {
		return mon, health, fmt.Errorf("certifier still holds in-flight transactions after settle: %v", live)
	}
	if !mon.PWSR() {
		return mon, health, fmt.Errorf("certifier verdict violated after cancel")
	}
	if res != nil {
		replay := core.NewMonitor(r.w.DataSets)
		for _, o := range res.Schedule.Ops() {
			replay.Observe(o)
		}
		if !replay.PWSR() {
			return mon, health, fmt.Errorf("surviving schedule does not replay PWSR:\n%s", res.Schedule)
		}
	}
	return mon, health, nil
}

// drain drives the drain leg: a journaled gate with planted live
// transactions is drained under a tight deadline, with the armed
// cancel point sitting on a drain step. The drain must terminate
// promptly with the typed error, retract the unfinished remainder, and
// refuse later admissions with exec.ErrDraining.
func (r *trialRun) drain(ctx context.Context, rng *rand.Rand, rec *TrialRecord) (*core.Monitor, exec.Health, error) {
	start := time.Now()
	mon, gate := r.gate(true)
	// Plant live transactions: reads of one shared item by fresh ids,
	// observed directly on the certifier (no engine is attached, so
	// they can never finish — the drain's wait must give up on them).
	item := r.w.DataSets[0].Sorted()[0]
	val := r.w.Initial[item]
	planted := 2 + rng.Intn(3)
	for id := 1; id <= planted; id++ {
		gate.Monitor().Observe(txn.Read(id, item, val))
	}
	deadline := (30 + time.Duration(rng.Intn(20))) * time.Millisecond
	dctx, dcancel := context.WithTimeout(ctx, deadline)
	defer dcancel()
	err := gate.Drain(dctx)
	elapsed := time.Since(start)
	rec.Fired, rec.Events = r.inj.Fired(), len(r.tap.events)
	h := gate.Health()

	switch {
	case err == nil:
		return mon, h, fmt.Errorf("drain of %d unfinishable transactions returned nil", planted)
	case errors.Is(err, exec.ErrCanceled):
		rec.Outcome = "canceled"
	case errors.Is(err, exec.ErrDeadline):
		rec.Outcome = "deadline"
	default:
		return mon, h, fmt.Errorf("untyped drain error: %v", err)
	}
	if r.inj.FiredCancels("gate", fault.OpDrain) > 0 && rec.Outcome != "canceled" {
		return mon, h, fmt.Errorf("armed drain-step cancel fired but the drain surfaced %v", err)
	}
	if elapsed > deadline+5*time.Second {
		return mon, h, fmt.Errorf("drain overran its deadline: %v elapsed for a %v deadline", elapsed, deadline)
	}
	if live := mon.InFlightTxnIDs(); len(live) != 0 {
		return mon, h, fmt.Errorf("drain left in-flight transactions: %v", live)
	}
	if !h.Draining {
		return mon, h, fmt.Errorf("health does not surface the draining posture: %+v", h)
	}
	if aerr := gate.AdmitTxn([]txn.Op{txn.Write(100+planted, item, val)}); !errors.Is(aerr, exec.ErrDraining) {
		return mon, h, fmt.Errorf("post-drain admission error = %v, want exec.ErrDraining", aerr)
	}
	return mon, h, nil
}
