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
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// This file is the cancel-at-every-point differential: seeded trials
// that arm a single deterministic cancellation point — a gate
// admission tick, a journal write or sync, a batch commit turn, or a
// drain step — via fault.KindCancel, fire a context cancel exactly
// there, and check the lifecycle obligations the tentpole claims:
//
//   - Typed: a cancelled run surfaces exec.ErrCanceled (a drain past
//     its deadline, exec.ErrDeadline) — never a certification denial,
//     never a silent wrong answer.
//   - No partial grant: the surviving schedule replays to a PWSR
//     verdict and the gate's certifier holds no live transaction after
//     the run settles (cancel equals abort: every in-flight attempt is
//     retracted or force-retired, exactly as a completed run with
//     those aborts).
//   - No lost journaled admission: the gate's certifier state equals a
//     fresh replay of the absorbed event stream, recovery from the
//     backend agrees with that stream, and wal.Resume rebuilds a
//     verdict-identical monitor.
//
// Cases are plain data (CancelCase), JSON round-trippable so a failing
// point replays exactly: TestCancelMatrix dumps cancel-failed-*.json
// artifacts, and TestCancelReplay replays every case checked in under
// testdata/cancel.

// CancelCase is one replayable cancel trial: the seed that derives the
// workload and journal, the pipeline leg, and the fault plan carrying
// the armed cancel point.
type CancelCase struct {
	Seed int64 `json:"seed"`
	// Leg is "tick" (tick engine + optimistic gate), "batch"
	// (block-parallel engine + batch admission), or "drain" (a gate
	// with planted live transactions drained under a deadline).
	Leg  string     `json:"leg"`
	Plan fault.Plan `json:"plan"`
}

// CancelRecord is one cancel trial's summary.
type CancelRecord struct {
	CancelCase
	// Outcome is "completed" (the armed point was never reached),
	// "canceled" (the run surfaced the typed cancel error), or, for
	// the drain leg, "deadline" (the drain expired and retracted the
	// remainder).
	Outcome string `json:"outcome"`
	// Fired counts fault decisions (including cancels) that fired.
	Fired int64 `json:"fired"`
	// Events is the absorbed lifecycle-event count; RecoveredSeq is
	// the durable prefix recovery found.
	Events       int    `json:"events"`
	RecoveredSeq uint64 `json:"recovered_seq"`
	WallNs       int64  `json:"wall_ns"`
}

// CancelFailure is a failed cancel trial: the reason plus the exact
// case, JSON-dumpable so the failing point replays bit-for-bit.
type CancelFailure struct {
	Case   CancelCase
	Reason string
}

// Error implements error.
func (f *CancelFailure) Error() string {
	return fmt.Sprintf("cancel trial seed %d leg %s: %s", f.Case.Seed, f.Case.Leg, f.Reason)
}

// CaseJSON renders the failing case as indented JSON (the CI
// artifact's payload, and the format of testdata/cancel).
func (f *CancelFailure) CaseJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Reason string `json:"reason"`
		CancelCase
	}{f.Reason, f.Case}, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("{%q: %q}", "marshal_error", err.Error()))
	}
	return append(data, '\n')
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
	"tick": {
		{"gate", fault.OpTick, 15},
		{"wal/primary", fault.OpWrite, 15},
		{"wal/primary", fault.OpSync, 15},
	},
	"batch": {
		{"engine", fault.OpCommit, 7},
		{"wal/primary", fault.OpWrite, 12},
		{"wal/primary", fault.OpSync, 12},
	},
	"drain": {
		{"gate", fault.OpDrain, 4},
	},
}

// cancelPlan arms one cancel point for the leg.
func cancelPlan(rng *rand.Rand, leg string) fault.Plan {
	pts := cancelPoints[leg]
	p := pts[rng.Intn(len(pts))]
	return fault.Plan{Seed: rng.Int63(), Rules: []fault.Rule{{
		Site: p.site, Op: p.op,
		From: int64(1 + rng.Intn(p.span)), Count: 1,
		Kind: fault.KindCancel,
	}}}
}

// RunCancelTrial draws one seeded cancel case and runs it. A non-nil
// error is always a *CancelFailure.
func RunCancelTrial(seed int64) (CancelRecord, error) {
	rng := rand.New(rand.NewSource(seed))
	leg := cancelLegs[rng.Intn(len(cancelLegs))]
	plan := cancelPlan(rng, leg)
	return RunCancelCase(CancelCase{Seed: seed, Leg: leg, Plan: plan})
}

// cancelTypedErr checks the cancellation error contract: nil, or an
// error that is exec.ErrCanceled/exec.ErrDeadline.
func cancelTypedErr(err error) error {
	if err == nil {
		return nil
	}
	if !errors.Is(err, exec.ErrCanceled) && !errors.Is(err, exec.ErrDeadline) {
		return fmt.Errorf("untyped cancellation error: %v", err)
	}
	return nil
}

// verifyResume closes the cancel trial's durability differential:
// wal.Resume on the backend must rebuild a monitor verdict-identical
// to a fresh replay of the absorbed stream cut at the recovered
// sequence, plus the one Compact pass Resume itself runs before cutting
// its baseline snapshot.
func verifyResume(b wal.Backend, partition []state.ItemSet, rec *recordingJournal) (uint64, error) {
	mon, w2, info, err := wal.Resume(b, partition, wal.Options{})
	if err != nil {
		return 0, fmt.Errorf("resume from the backend: %v", err)
	}
	defer w2.Close()
	if info.LastSeq > uint64(len(rec.events)) {
		return info.LastSeq, fmt.Errorf("resume recovered %d events but only %d were absorbed", info.LastSeq, len(rec.events))
	}
	ref := replayReference(partition, rec.events[:info.LastSeq])
	ref.Compact() // Resume compacts once before cutting its baseline
	if err := sameCertState("resumed monitor vs reference replay", mon, ref, len(partition)); err != nil {
		return info.LastSeq, err
	}
	return info.LastSeq, nil
}

// RunCancelCase runs one cancel case end to end; it also re-runs a
// dumped case exactly (the workload, inner policy, and journal layout
// are all derived from Seed; the plan carries the armed point). A
// non-nil error is always a *CancelFailure carrying the case; a case
// naming an unknown Leg is refused before anything runs.
func RunCancelCase(c CancelCase) (CancelRecord, error) {
	rec := CancelRecord{CancelCase: c}
	fail := func(format string, args ...any) (CancelRecord, error) {
		return rec, &CancelFailure{Case: c, Reason: fmt.Sprintf(format, args...)}
	}
	if _, ok := cancelPoints[c.Leg]; !ok {
		return fail("unknown leg %q", c.Leg)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	w := chaosWorkload(rng, c.Seed)

	inj := fault.NewInjector(c.Plan)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj.SetCancel(cancel)
	b, jw, tap, err := chaosJournal(inj, rng)
	if err != nil {
		return fail("journal construction refused: %v", err)
	}
	conjuncts := len(w.DataSets)
	start := time.Now()

	if c.Leg == "drain" {
		return runCancelDrainLeg(c, rec, w, inj, ctx, b, jw, tap, rng, start)
	}

	var runErr error
	var gateMon certState
	var health exec.Health
	var res *exec.Result

	switch c.Leg {
	case "batch":
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewOptimisticCertifyOver(mon, &sched.Serial{}, nil)
		gate.AttachJournal(tap)
		eng := exec.NewParallelEngine(exec.ParallelConfig{
			Initial: w.Initial, Gate: gate, Workers: 2 + rng.Intn(3),
		})
		eng.SetFaultInjector(inj, "engine")
		res, runErr = eng.ExecuteBatchCtx(ctx, w.Programs)
		gateMon = mon
		health = gate.Health()
	case "tick":
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(int64(rng.Int31())), nil)
		gate.AttachJournal(tap)
		gate.SetFaultInjector(inj, "gate")
		res, runErr = exec.RunCtx(ctx, exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		})
		gateMon = mon
		health = gate.Health()
	}
	rec.WallNs = time.Since(start).Nanoseconds()
	rec.Fired = inj.Fired()
	rec.Events = len(tap.events)

	// Typed-error obligation.
	if terr := cancelTypedErr(runErr); terr != nil {
		return fail("%v", terr)
	}
	switch {
	case runErr == nil:
		rec.Outcome = "completed"
	default:
		rec.Outcome = "canceled"
		if errors.Is(runErr, exec.ErrDeadline) {
			return fail("cancel surfaced as a deadline: %v", runErr)
		}
	}

	// Cancel-equals-abort: after the run settles, the certifier holds
	// no in-flight transaction (committed-but-unreclaimed residents
	// are fine — compaction owns those) and its verdict is intact.
	if live := gateMon.InFlightTxnIDs(); len(live) != 0 {
		return fail("certifier still holds in-flight transactions after settle: %v", live)
	}
	if !gateMon.PWSR() {
		return fail("certifier verdict violated after cancel")
	}

	// No partial grant: the surviving schedule must replay to a PWSR
	// verdict on a fresh monitor.
	if res != nil {
		replay := core.NewMonitor(w.DataSets)
		for _, o := range res.Schedule.Ops() {
			replay.Observe(o)
		}
		if !replay.PWSR() {
			return fail("surviving schedule does not replay PWSR:\n%s", res.Schedule)
		}
	}

	// No lost journaled admission: with a healthy journal, the
	// certifier state must equal a fresh replay of the absorbed stream
	// (cancel plans inject no journal faults, so this holds on every
	// trial).
	completedClean := health.JournalErr == nil
	if completedClean {
		ref := replayReference(w.DataSets, tap.events)
		if err := sameCertState("settled gate vs absorbed replay", gateMon, ref, conjuncts); err != nil {
			return fail("%v", err)
		}
	}

	// Durability: recovery and Resume from the backend must both agree
	// with the absorbed stream.
	seq, derr := verifyDurable(b, jw, tap, w.DataSets, completedClean)
	rec.RecoveredSeq = seq
	if derr != nil {
		return fail("%v", derr)
	}
	if _, rerr := verifyResume(b, w.DataSets, tap); rerr != nil {
		return fail("%v", rerr)
	}
	return rec, nil
}

// runCancelDrainLeg drives the drain leg: a journaled gate with
// planted live transactions is drained under a tight deadline, with
// the armed cancel point sitting on a drain step. The drain must
// terminate promptly with the typed error, retract the unfinished
// remainder, refuse later admissions with exec.ErrDraining, and leave
// the journal verdict-identical to the monitor.
func runCancelDrainLeg(c CancelCase, rec CancelRecord, w *gen.Workload, inj *fault.Injector, ctx context.Context, b wal.Backend, jw *wal.Writer, tap *recordingJournal, rng *rand.Rand, start time.Time) (CancelRecord, error) {
	fail := func(format string, args ...any) (CancelRecord, error) {
		return rec, &CancelFailure{Case: c, Reason: fmt.Sprintf(format, args...)}
	}
	mon := core.NewMonitor(w.DataSets)
	gate := sched.NewOptimisticCertifyOver(mon, &sched.Serial{}, nil)
	gate.AttachJournal(tap)
	gate.SetFaultInjector(inj, "gate")

	// Plant live transactions: reads of one shared item by fresh ids,
	// observed directly on the certifier (no engine is attached, so
	// they can never finish — the drain's wait must give up on them).
	item := w.DataSets[0].Sorted()[0]
	val := w.Initial[item]
	planted := 2 + rng.Intn(3)
	for id := 1; id <= planted; id++ {
		gate.Monitor().Observe(txn.Read(id, item, val))
	}

	deadline := (30 + time.Duration(rng.Intn(20))) * time.Millisecond
	dctx, dcancel := context.WithTimeout(ctx, deadline)
	defer dcancel()
	derr := gate.Drain(dctx)
	elapsed := time.Since(start)
	rec.WallNs = elapsed.Nanoseconds()
	rec.Fired = inj.Fired()
	rec.Events = len(tap.events)

	// The planted transactions can never finish, so the drain must end
	// on the armed cancel or the deadline — always with the typed
	// error naming the retracted remainder.
	if derr == nil {
		return fail("drain of %d unfinishable transactions returned nil", planted)
	}
	if terr := cancelTypedErr(derr); terr != nil {
		return fail("%v", terr)
	}
	if errors.Is(derr, exec.ErrCanceled) {
		rec.Outcome = "canceled"
	} else {
		rec.Outcome = "deadline"
	}
	if inj.FiredCancels("gate", fault.OpDrain) > 0 && rec.Outcome != "canceled" {
		return fail("armed drain-step cancel fired but the drain surfaced %v", derr)
	}
	if elapsed > deadline+5*time.Second {
		return fail("drain overran its deadline: %v elapsed for a %v deadline", elapsed, deadline)
	}

	// The remainder must be retracted (cancel equals abort) and the
	// posture surfaced.
	if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
		return fail("drain left in-flight transactions: %v", live)
	}
	h := gate.Health()
	if !h.Draining {
		return fail("health does not surface the draining posture: %+v", h)
	}
	// A draining gate refuses fresh admissions with the typed error.
	aerr := gate.AdmitTxn([]txn.Op{txn.Write(100+planted, item, val)})
	if !errors.Is(aerr, exec.ErrDraining) {
		return fail("post-drain admission error = %v, want exec.ErrDraining", aerr)
	}

	// No lost journaled admission across the drain: monitor vs
	// absorbed stream, then recovery and Resume vs the same stream.
	completedClean := h.JournalErr == nil
	if completedClean {
		ref := replayReference(w.DataSets, tap.events)
		if err := sameCertState("drained gate vs absorbed replay", mon, ref, len(w.DataSets)); err != nil {
			return fail("%v", err)
		}
	}
	seq, verr := verifyDurable(b, jw, tap, w.DataSets, completedClean)
	rec.RecoveredSeq = seq
	if verr != nil {
		return fail("%v", verr)
	}
	if _, rerr := verifyResume(b, w.DataSets, tap); rerr != nil {
		return fail("%v", rerr)
	}
	return rec, nil
}
