package sched_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/wal"
)

// brokenWriter builds a journal over an injected backend with the
// given fault rules (site "wal").
func brokenWriter(t *testing.T, opts wal.Options, rules ...fault.Rule) (*wal.Writer, *wal.MemBackend) {
	t.Helper()
	mem := wal.NewMemBackend()
	b := wal.NewInjectBackend(mem, fault.NewInjector(fault.Plan{Rules: rules}), "wal")
	jw, err := wal.NewWriter(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return jw, mem
}

// TestDegradeShedSurfacesTyped pins the shed mode: a journal outage
// under sched.DegradeShed latches the gate into refusing admissions by
// policy, the run surfaces exec.ErrDegraded (not ErrJournalDown, not
// ErrStall), the degradation is queryable through Health, and the log
// still recovers to a consistent prefix of the admitted schedule.
func TestDegradeShedSurfacesTyped(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: 801,
	})
	jw, mem := brokenWriter(t, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1},
		fault.Rule{Op: fault.OpSync, From: 2, Count: 0, Kind: fault.KindError, Msg: "device gone"})
	gate := sched.NewCertify(w.DataSets, sched.NewRandom(1))
	gate.AttachJournal(jw, sched.WithDegradeMode(sched.DegradeShed))
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
	})
	if !errors.Is(err, exec.ErrDegraded) {
		t.Fatalf("err=%v, want ErrDegraded", err)
	}
	if errors.Is(err, exec.ErrStall) || errors.Is(err, exec.ErrJournalDown) {
		t.Fatalf("degraded run misclassified: %v", err)
	}
	h := gate.Health()
	if h.Mode != exec.ModeShed || h.Shed == 0 || h.JournalErr == nil {
		t.Fatalf("health = %+v, want shed mode with a recorded cause", h)
	}
	// The batch-admission surface refuses with the same typed cause.
	if aerr := gate.AdmitTxn(nil); !errors.Is(aerr, exec.ErrDegraded) {
		t.Fatalf("AdmitTxn on a shed gate = %v, want ErrDegraded", aerr)
	}
	// The durable prefix is still a consistent recovery base.
	if _, _, rerr := wal.Recover(mem, w.DataSets); rerr != nil {
		t.Fatalf("recovering the shed gate's log: %v", rerr)
	}
}

// TestDegradeBufferBridgesTransientOutage pins the buffering mode's
// liveness: an outage that outlasts the writer's retry budget latches
// the writer's fail-stop, but the gate bridges it — acknowledging
// against the bounded queue and healing the writer — and the run
// completes with every admission durable: recovery from the backend is
// verdict-identical to the gate's monitor.
func TestDegradeBufferBridgesTransientOutage(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 4, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 601,
	})
	// Sync occurrences 2..4 fail: the first post-genesis barrier burns
	// its one retry and fail-stops the writer; the gate's Heal rebases
	// once the window passes.
	jw, mem := brokenWriter(t, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1},
		fault.Rule{Op: fault.OpSync, From: 2, Count: 3, Kind: fault.KindError, Msg: "transient outage"})
	gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(2), nil)
	gate.AttachJournal(jw, sched.WithDegradeMode(sched.DegradeBuffer), sched.WithBufferCap(16))
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatalf("buffered gate did not bridge the outage: %v", err)
	}
	if jw.Stats().Heals == 0 {
		t.Fatal("outage bridged without a heal")
	}
	h := gate.Health()
	if h.Mode != exec.ModeOK || h.Queued != 0 {
		t.Fatalf("health after bridge = %+v, want drained ModeOK", h)
	}
	if h.Heals == 0 {
		t.Fatal("health did not surface the heal count")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := wal.Recover(mem, w.DataSets)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	requireSameCertState(t, "buffered gate", rec, gate.Monitor(), len(w.DataSets))
}

// TestDegradeBufferTripsToShed pins the buffering mode's bound: a
// persistent outage overflows the admission queue past its cap, and
// the gate trips to shed — dropping the queue, latching the sticky
// error, and surfacing exec.ErrDegraded — rather than buffering an
// unbounded exposure.
func TestDegradeBufferTripsToShed(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 4, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 601,
	})
	jw, _ := brokenWriter(t, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1},
		fault.Rule{Op: fault.OpSync, From: 2, Count: 0, Kind: fault.KindError, Msg: "device gone"})
	gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(2), nil)
	gate.AttachJournal(jw, sched.WithDegradeMode(sched.DegradeBuffer), sched.WithBufferCap(2))
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
	})
	if !errors.Is(err, exec.ErrDegraded) {
		t.Fatalf("err=%v, want ErrDegraded after the buffer tripped", err)
	}
	h := gate.Health()
	if h.Mode != exec.ModeShed {
		t.Fatalf("health = %+v, want tripped-to-shed", h)
	}
	if h.Buffered == 0 {
		t.Fatal("gate tripped without ever buffering")
	}
	if h.Dropped == 0 {
		t.Fatal("trip did not account the dropped queue")
	}
	if h.Queued != 0 {
		t.Fatalf("queue survived the trip: %+v", h)
	}
	if gate.JournalErr() == nil {
		t.Fatal("tripped gate did not latch the journal error")
	}
}

// TestTickInjectionPreservesVerdicts pins the gate-tick injection
// point's contract: transient tick faults (skips and latency) perturb
// timing only — the injected run completes with the identical schedule
// and certifier state as the uninjected twin.
func TestTickInjectionPreservesVerdicts(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 4, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 601,
	})
	run := func(inj *fault.Injector) (*exec.Result, *sched.OptimisticCertify) {
		gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(7), nil)
		if inj != nil {
			gate.SetFaultInjector(inj, "gate")
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, gate
	}
	want, wantGate := run(nil)
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "gate", Op: fault.OpTick, From: 1, Count: 4, Kind: fault.KindError},
		{Site: "gate", Op: fault.OpTick, From: 7, Count: 2, Kind: fault.KindLatency, Latency: 100},
	}})
	got, gotGate := run(inj)
	if inj.Fired() == 0 {
		t.Fatal("tick plan never fired")
	}
	if !reflect.DeepEqual(got.Schedule.Ops(), want.Schedule.Ops()) {
		t.Fatalf("tick faults changed the schedule:\n got %v\nwant %v", got.Schedule, want.Schedule)
	}
	requireSameCertState(t, "tick-injected gate", gotGate.Monitor(), wantGate.Monitor(), len(w.DataSets))
}
