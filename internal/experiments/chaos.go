package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/sim"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// This file is the ROBUST1 chaos differential: randomized, seeded
// fault plans injected into the full pipeline (backend writes and
// syncs, gate ticks, engine commit turns) with every run
// lockstep-compared against an uninjected twin. The properties it
// pins:
//
//   - Safety: a run that completes under faults produces the exact
//     schedule and certifier verdict of its fault-free twin, and every
//     acknowledged admission is durable on the surviving backend
//     (recovery replays to the identical certifier state).
//   - Typed degradation: a run that cannot complete surfaces
//     exec.ErrJournalDown — never a silent wrong answer, never a bare
//     stall.
//   - Liveness: a plan whose rules are all transient always drains to
//     completion (retry budgets and failover promotion absorb every
//     glitch).
//
// Plans are plain data; a failing trial surfaces its plan as JSON so
// the exact schedule of faults can be replayed (see ChaosFailure).

// ChaosRecord is one chaos trial's summary, in the machine-readable
// shape cmd/pwsrbench writes to BENCH_chaos.json.
type ChaosRecord struct {
	// Seed drives the workload, the fault plan, and the gate's inner
	// policy; a seed fully determines the trial.
	Seed int64 `json:"seed"`
	// Leg is "tick" (tick engine + optimistic gate) or "batch"
	// (block-parallel engine + optimistic batch gate).
	Leg string `json:"leg"`
	// Case names the fault shape: "clean", "transient-primary",
	// "persistent-primary", or "total-outage".
	Case string `json:"case"`
	// Rules is the plan's rule count; Transient reports whether every
	// rule is transient (the liveness obligation).
	Rules     int  `json:"rules"`
	Transient bool `json:"transient"`
	// Outcome is "completed", "failover-completed" (completed through
	// ≥1 standby promotion), or "degraded" (typed refusal).
	Outcome string `json:"outcome"`
	// Injected counts fault decisions that actually fired.
	Injected int64 `json:"injected"`
	// Failovers counts the journal's standby promotions in the trial.
	Failovers int64 `json:"failovers"`
	// Events is the absorbed lifecycle-event count; RecoveredSeq is the
	// durable prefix recovery found on the surviving backend.
	Events       int    `json:"events"`
	RecoveredSeq uint64 `json:"recovered_seq"`
	WallNs       int64  `json:"wall_ns"`
}

// ChaosFailure is a failed trial: the reason plus the exact fault plan,
// JSON-dumpable so the failure replays bit-for-bit.
type ChaosFailure struct {
	Seed   int64
	Reason string
	Plan   fault.Plan
}

// Error implements error.
func (f *ChaosFailure) Error() string {
	return fmt.Sprintf("chaos trial seed %d: %s", f.Seed, f.Reason)
}

// PlanJSON renders the failing plan as indented JSON (the CI
// artifact's payload).
func (f *ChaosFailure) PlanJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Seed   int64      `json:"seed"`
		Reason string     `json:"reason"`
		Plan   fault.Plan `json:"plan"`
	}{f.Seed, f.Reason, f.Plan}, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{%q: %q}", "marshal_error", err.Error()))
	}
	return append(data, '\n')
}

// recordingJournal wraps the wal writer as the gate's journal and
// records every lifecycle event the writer absorbs (LoggedSeq
// advanced), in absorption order. The recorded stream is the trial's
// durability oracle: any durable prefix recovery finds must replay to
// the same certifier state as the stream's own prefix. Events the
// writer refused (fail-stop, un-absorbed appends) are not recorded.
type recordingJournal struct {
	w      *wal.Writer
	events []core.Event
}

func (r *recordingJournal) absorb(ev core.Event, emit func()) {
	before := r.w.LoggedSeq()
	emit()
	if r.w.LoggedSeq() > before {
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

// certState is the verdict-defining certifier surface the differential
// compares, satisfied by *core.Monitor (the trials keep the monitor they
// built each gate over).
type certState interface {
	PWSR() bool
	Ops() int
	LiveTxnIDs() []int
	InFlightTxnIDs() []int
	CompactStats() core.CompactStats
	ConflictEdges(e int) [][2]int
}

// sameCertState compares everything a verdict depends on.
func sameCertState(ctx string, got, want certState, conjuncts int) error {
	if g, w := got.PWSR(), want.PWSR(); g != w {
		return fmt.Errorf("%s: PWSR=%v, want %v", ctx, g, w)
	}
	if g, w := got.Ops(), want.Ops(); g != w {
		return fmt.Errorf("%s: Ops=%d, want %d", ctx, g, w)
	}
	g, w := got.LiveTxnIDs(), want.LiveTxnIDs()
	if len(g) != len(w) {
		return fmt.Errorf("%s: LiveTxnIDs=%v, want %v", ctx, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s: LiveTxnIDs=%v, want %v", ctx, g, w)
		}
	}
	if gs, ws := got.CompactStats(), want.CompactStats(); gs != ws {
		return fmt.Errorf("%s: CompactStats=%+v, want %+v", ctx, gs, ws)
	}
	for e := 0; e < conjuncts; e++ {
		ge, we := got.ConflictEdges(e), want.ConflictEdges(e)
		if len(ge) != len(we) {
			return fmt.Errorf("%s: conjunct %d edges=%v, want %v", ctx, e, ge, we)
		}
		for i := range ge {
			if ge[i] != we[i] {
				return fmt.Errorf("%s: conjunct %d edges=%v, want %v", ctx, e, ge, we)
			}
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

// chaosCases are the fault shapes the plan generator draws from.
var chaosCases = []string{"clean", "transient-primary", "persistent-primary", "total-outage"}

// chaosPlan builds the trial's fault plan for the drawn case.
// The generator respects the liveness obligations the writer's budgets
// actually provide, so "transient plan ⇒ run drains" is a theorem the
// differential can assert rather than a hope:
//
//   - Tick faults are always transient (a skipped tick re-picks the
//     same pending set; a persistent tick fault is pure starvation).
//   - Transient sync glitches stay within the writer's retry budget
//     (maxRetries = 1 ⇒ windows of 1).
//   - Transient write/torn faults (no retry — they trigger failover)
//     are drawn at most once per trial on the primary only, so the
//     single standby absorbs them.
//   - Persistent faults start From ≥ 3 on the primary (genesis always
//     succeeds; the trial starts) and From 1 on the standby (the
//     resync after promotion fails immediately — total outage).
func chaosPlan(rng *rand.Rand, caseName, tickSite, commitSite string, withCommit bool) fault.Plan {
	var rules []fault.Rule
	addTick := func() {
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			r := fault.Rule{
				Site: tickSite, Op: fault.OpTick,
				From: int64(1 + rng.Intn(12)), Count: int64(1 + rng.Intn(3)),
				Kind: fault.KindError,
			}
			if rng.Intn(2) == 0 {
				r.Kind = fault.KindLatency
				r.Latency = time.Duration(1+rng.Intn(20)) * time.Microsecond
			}
			rules = append(rules, r)
		}
	}
	addCommit := func() {
		if !withCommit {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			r := fault.Rule{
				Site: commitSite, Op: fault.OpCommit,
				From: int64(1 + rng.Intn(6)), Count: int64(1 + rng.Intn(3)),
				Kind: fault.KindError, Msg: "lost attempt",
			}
			if rng.Intn(3) == 0 {
				r.Kind = fault.KindLatency
				r.Latency = time.Duration(1+rng.Intn(20)) * time.Microsecond
			}
			rules = append(rules, r)
		}
	}
	addTick()
	addCommit()
	switch caseName {
	case "transient-primary":
		// Retry budget (1 retry) absorbs 1-wide sync windows without
		// failover; one write/torn glitch burns the single standby.
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
		}, fault.Rule{
			Site: "wal/standby", Op: fault.OpWrite,
			From: 1, Count: 0,
			Kind: fault.KindError, Msg: "standby dead",
		})
	}
	return fault.Plan{Seed: rng.Int63(), Rules: rules}
}

// chaosWorkload draws the trial's generated workload.
func chaosWorkload(rng *rand.Rand, seed int64) *gen.Workload {
	return gen.MustGenerate(gen.Config{
		Conjuncts:       2 + rng.Intn(2),
		Programs:        4 + rng.Intn(3),
		MovesPerProgram: 2 + rng.Intn(2),
		Style:           gen.Style(rng.Intn(3)),
		Seed:            seed,
	})
}

// chaosJournal assembles the injected journal stack: two in-memory
// backends each behind its own injection site, chained by a
// FailoverBackend, carrying the writer and the recording tap.
func chaosJournal(inj *fault.Injector, rng *rand.Rand) (*wal.FailoverBackend, *wal.Writer, *recordingJournal, error) {
	primary := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/primary")
	standby := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/standby")
	fb := wal.NewFailoverBackend(primary, standby)
	snapEvery := 0
	if rng.Intn(2) == 0 {
		snapEvery = 2 + rng.Intn(3)
	}
	w, err := wal.NewWriter(fb, wal.Options{
		GroupEvery:    1,
		SnapshotEvery: snapEvery,
		MaxRetries:    1,
	})
	if err != nil {
		return fb, nil, nil, err
	}
	return fb, w, &recordingJournal{w: w}, nil
}

// verifyDurable closes the trial: whatever recovery finds on the
// surviving backend must replay to the identical certifier state as
// the recorded absorbed-event stream cut at the same sequence, and a
// cleanly-completed trial must have its entire acknowledged stream
// durable (strict sequence continuity across any failover).
func verifyDurable(fb *wal.FailoverBackend, w *wal.Writer, rec *recordingJournal, partition []state.ItemSet, completedClean bool) (uint64, error) {
	if w.Barrier() == nil {
		if err := w.Close(); err != nil {
			return 0, fmt.Errorf("close after healthy run: %v", err)
		}
	}
	m, info, err := wal.Recover(fb, partition)
	if err != nil {
		return 0, fmt.Errorf("recovery from surviving backend: %v", err)
	}
	if info.LastSeq > uint64(len(rec.events)) {
		return info.LastSeq, fmt.Errorf("recovered %d events but only %d were absorbed", info.LastSeq, len(rec.events))
	}
	if completedClean && info.LastSeq != uint64(len(rec.events)) {
		return info.LastSeq, fmt.Errorf("acknowledged admissions not durable: recovered seq %d, absorbed %d", info.LastSeq, len(rec.events))
	}
	ref := replayReference(partition, rec.events[:info.LastSeq])
	if err := sameCertState("recovered vs reference replay", m, ref, len(partition)); err != nil {
		return info.LastSeq, err
	}
	return info.LastSeq, nil
}

// RunChaosTrial runs one seeded chaos trial end to end and returns its
// record. A non-nil error is always a *ChaosFailure: a violated
// safety, liveness, or durability obligation, with the plan attached.
func RunChaosTrial(seed int64) (ChaosRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	leg := "tick"
	if rng.Intn(5) == 0 {
		leg = "batch"
	}
	caseName := chaosCases[rng.Intn(len(chaosCases))]
	// The draw that once picked a degradation mode: kept so every seed's
	// stream, and so every trial, replays as before.
	rng.Intn(2)
	w := chaosWorkload(rng, seed)
	plan := chaosPlan(rng, caseName, "gate", "engine", leg == "batch")
	rec := ChaosRecord{
		Seed: seed, Leg: leg, Case: caseName,
		Rules: len(plan.Rules), Transient: plan.Transient(),
	}
	fail := func(format string, args ...any) (ChaosRecord, error) {
		return rec, &ChaosFailure{Seed: seed, Reason: fmt.Sprintf(format, args...), Plan: plan}
	}

	inj := fault.NewInjector(plan)
	fb, jw, tap, err := chaosJournal(inj, rng)
	if err != nil {
		// Construction refused upfront: nothing was ever acknowledged, so
		// nothing can be lost — but the generator keeps genesis clean, so
		// reaching this is a generator bug worth failing loudly on.
		return fail("journal construction refused: %v", err)
	}

	start := time.Now()
	var runErr error
	var gateMon, twinMon certState
	var health exec.Health
	conjuncts := len(w.DataSets)

	switch leg {
	case "batch":
		twin := core.NewMonitor(w.DataSets)
		twinGate := sched.NewOptimisticCertifyOver(twin, &sched.Serial{}, nil)
		twinRes, terr := exec.NewParallelEngine(exec.ParallelConfig{
			Initial: w.Initial, Gate: twinGate, Workers: 2,
		}).ExecuteBatchCtx(context.TODO(), w.Programs)
		if terr != nil {
			return fail("uninjected twin failed: %v", terr)
		}
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewOptimisticCertifyOver(mon, &sched.Serial{}, nil)
		gate.AttachJournal(tap)
		eng := exec.NewParallelEngine(exec.ParallelConfig{
			Initial: w.Initial, Gate: gate, Workers: 2 + rng.Intn(3),
		})
		eng.SetFaultInjector(inj, "engine")
		res, rerr := eng.ExecuteBatchCtx(context.TODO(), w.Programs)
		runErr = rerr
		gateMon, twinMon = mon, twin
		health = gate.Health()
		if runErr == nil {
			if res.Schedule.String() != twinRes.Schedule.String() {
				return fail("batch schedule diverged from twin\ninjected: %s\ntwin:     %s", res.Schedule, twinRes.Schedule)
			}
			if !res.Final.Equal(twinRes.Final) {
				return fail("batch final state diverged from twin")
			}
		}
	default:
		inner := int64(rng.Int31())
		twin := core.NewMonitor(w.DataSets)
		twinGate := sched.NewOptimisticCertifyOver(twin, sched.NewRandom(inner), nil)
		twinRes, terr := exec.RunCtx(context.TODO(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: twinGate, DataSets: w.DataSets,
		})
		if terr != nil {
			return fail("uninjected twin failed: %v", terr)
		}
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(inner), nil)
		gate.AttachJournal(tap)
		gate.SetFaultInjector(inj, "gate")
		res, rerr := exec.RunCtx(context.TODO(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		})
		runErr = rerr
		gateMon, twinMon = mon, twin
		health = gate.Health()
		if runErr == nil {
			if res.Schedule.String() != twinRes.Schedule.String() {
				return fail("schedule diverged from twin\ninjected: %s\ntwin:     %s", res.Schedule, twinRes.Schedule)
			}
		}
	}
	rec.WallNs = time.Since(start).Nanoseconds()
	rec.Injected = inj.Fired()
	st := jw.Stats()
	rec.Failovers = st.Failovers
	rec.Events = len(tap.events)

	switch {
	case runErr == nil:
		if err := sameCertState("completed gate vs twin", gateMon, twinMon, conjuncts); err != nil {
			return fail("%v", err)
		}
		rec.Outcome = "completed"
		if st.Failovers > 0 {
			rec.Outcome = "failover-completed"
		}
		if caseName == "persistent-primary" {
			// The persistent fault may sit beyond the workload's write
			// stream and never fire; only a fired fault obligates a
			// promotion.
			fired := inj.FiredErrors("wal/primary", fault.OpWrite) + inj.FiredErrors("wal/primary", fault.OpSync)
			if fired > 0 && (fb.Current() == 0 || st.Failovers == 0) {
				return fail("persistent primary outage completed without a promotion (current=%d failovers=%d)", fb.Current(), st.Failovers)
			}
		}
	case errors.Is(runErr, exec.ErrJournalDown):
		if plan.Transient() {
			return fail("transient-only plan did not drain: %v", runErr)
		}
		if caseName != "total-outage" {
			return fail("case %s should survive via failover, got %v", caseName, runErr)
		}
		rec.Outcome = "degraded"
	default:
		return fail("untyped failure: %v", runErr)
	}

	// Durability differential: recovery from the surviving backend must
	// agree with the absorbed stream; a cleanly completed run (journal
	// healthy) must be durable in full.
	completedClean := runErr == nil && health.JournalErr == nil
	seq, derr := verifyDurable(fb, jw, tap, w.DataSets, completedClean)
	rec.RecoveredSeq = seq
	if derr != nil {
		return fail("%v", derr)
	}
	return rec, nil
}

// ChaosStudy runs trials seeded seed..seed+trials-1 and aggregates the
// outcomes. The first violated obligation aborts the study with a
// *ChaosFailure.
func ChaosStudy(trials int, seed int64) (*sim.Table, []ChaosRecord, error) {
	records := make([]ChaosRecord, 0, trials)
	counts := map[string]int{}
	var failovers, injected int64
	for i := 0; i < trials; i++ {
		rec, err := RunChaosTrial(seed + int64(i))
		if err != nil {
			return nil, records, err
		}
		records = append(records, rec)
		counts[rec.Outcome]++
		failovers += rec.Failovers
		injected += rec.Injected
	}
	tab := &sim.Table{
		Title:   fmt.Sprintf("ROBUST1 — chaos differential (%d seeded plans)", trials),
		Columns: []string{"outcome", "trials"},
		Notes: []string{
			fmt.Sprintf("injected faults: %d; failover promotions: %d", injected, failovers),
			"every completed trial schedule- and verdict-identical to its uninjected twin",
			"every durable prefix verdict-identical to the absorbed-stream reference replay",
		},
	}
	for _, k := range []string{"completed", "failover-completed", "degraded"} {
		tab.AddRow(k, fmt.Sprintf("%d", counts[k]))
	}
	return tab, records, nil
}
