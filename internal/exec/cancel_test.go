package exec_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/wal"
)

// TestCancelErrorTyped pins the ctx-to-typed-error mapping: a live
// context maps to nil, an explicit cancel to ErrCanceled, an expired
// deadline to ErrDeadline — with the raw context error preserved in
// the chain and the two flavors never confused with each other or with
// a certification denial.
func TestCancelErrorTyped(t *testing.T) {
	if err := exec.CancelError(context.Background()); err != nil {
		t.Fatalf("live context mapped to %v", err)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	cerr := exec.CancelError(cctx)
	if !errors.Is(cerr, exec.ErrCanceled) || !errors.Is(cerr, context.Canceled) {
		t.Fatalf("cancel mapped to %v", cerr)
	}
	if errors.Is(cerr, exec.ErrDeadline) {
		t.Fatalf("cancel not distinguishable: %v", cerr)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	derr := exec.CancelError(dctx)
	if !errors.Is(derr, exec.ErrDeadline) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline mapped to %v", derr)
	}
	if errors.Is(derr, exec.ErrCanceled) {
		t.Fatalf("deadline not distinguishable: %v", derr)
	}
}

// TestRunCtxPreCanceled pins the entry check: a context already dead
// at the call refuses the run with the typed error and no Result.
func TestRunCtxPreCanceled(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 4, MovesPerProgram: 2, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := exec.RunCtx(ctx, exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   sched.NewRandom(1),
	})
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("pre-canceled run = (%v, %v), want ErrCanceled", res, err)
	}
	if res != nil {
		t.Fatalf("pre-canceled run returned a result: %+v", res)
	}
}

// TestRunCtxMidRunCancel pins the settle contract on the serial
// engine: a cancel fired from a gate tick mid-run surfaces as a typed
// ErrCanceled, the gate holds no in-flight transaction afterwards, and
// the partial Result's schedule replays to a PWSR verdict on a fresh
// monitor — the committed prefix, never a partial grant.
func TestRunCtxMidRunCancel(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 5, MovesPerProgram: 3, Seed: 7})
	gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(2), nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "gate", Op: fault.OpTick, From: 4, Count: 1, Kind: fault.KindCancel},
	}})
	inj.SetCancel(cancel)
	gate.SetFaultInjector(inj, "gate")

	res, err := exec.RunCtx(ctx, exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   gate,
		DataSets: w.DataSets,
	})
	if inj.FiredCancels("gate", fault.OpTick) == 0 {
		t.Skip("workload finished before the armed tick — nothing to assert")
	}
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("mid-run cancel = %v, want ErrCanceled", err)
	}
	if errors.Is(err, exec.ErrDeadline) {
		t.Fatalf("cancel not distinguishable: %v", err)
	}
	if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
		t.Fatalf("cancelled run left in-flight transactions: %v", live)
	}
	if !gate.Monitor().PWSR() {
		t.Fatal("gate verdict violated by cancellation")
	}
	if res != nil {
		replay := core.NewMonitor(w.DataSets)
		for _, o := range res.Schedule.Ops() {
			if v := replay.Observe(o); v != nil {
				t.Fatalf("partial schedule not PWSR on replay: %v", v)
			}
		}
	}
}

// TestRunManyCtxCanceled pins the fleet path: a dead context fails
// every run with the typed error.
func TestRunManyCtxCanceled(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 3, MovesPerProgram: 2, Seed: 5})
	cfgs := []exec.Config{
		{Programs: w.Programs, Initial: w.Initial, Policy: sched.NewRandom(1)},
		{Programs: w.Programs, Initial: w.Initial, Policy: sched.NewRandom(2)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := exec.RunManyCtx(ctx, cfgs, 2)
	for i, err := range errs {
		if !errors.Is(err, exec.ErrCanceled) {
			t.Fatalf("run %d error = %v, want ErrCanceled", i, err)
		}
	}
}

// TestExecuteBatchCtxDeadline pins the batch path's cancel contract: a
// batch whose context is cancelled, expired, or cancelled at its first
// commit turn surfaces the typed ErrCanceled or ErrDeadline — the two
// never confused — and admits nothing: the gate's certifier holds no
// operation, the result's schedule is empty, and the attached journal
// holds no record. The commit turn's context checks are what keep the
// last case from admitting its first transaction.
func TestExecuteBatchCtxDeadline(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 4, MovesPerProgram: 2, Seed: 9})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name      string
		ctx       func(*fault.Injector) context.Context
		want, not error
		turns     int64 // commit turns the batch reaches
	}{
		{"canceled", func(*fault.Injector) context.Context { return canceled }, exec.ErrCanceled, exec.ErrDeadline, 0},
		{"expired", func(*fault.Injector) context.Context { return expired }, exec.ErrDeadline, exec.ErrCanceled, 0},
		{"canceled at the commit turn", func(inj *fault.Injector) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			inj.SetCancel(cancel)
			return ctx
		}, exec.ErrCanceled, exec.ErrDeadline, 1},
	} {
		gate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, 2), &sched.Serial{}, nil)
		journal, err := wal.NewWriter(wal.NewMemBackend(), wal.Options{GroupEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		gate.AttachJournal(journal)
		eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.Initial, Gate: gate, Workers: 2})
		inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{{
			Site: "engine", Op: fault.OpCommit, From: 1, Count: 1, Kind: fault.KindCancel,
		}}})
		eng.SetFaultInjector(inj, "engine")

		res, err := eng.ExecuteBatchCtx(tc.ctx(inj), w.Programs)
		if !errors.Is(err, tc.want) || errors.Is(err, tc.not) {
			t.Fatalf("%s batch = %v, want %v and not %v", tc.name, err, tc.want, tc.not)
		}
		if got := inj.FiredCancels("engine", fault.OpCommit); got != tc.turns {
			t.Fatalf("%s batch reached %d commit turns, want %d", tc.name, got, tc.turns)
		}
		if res != nil && res.Schedule.Len() != 0 {
			t.Fatalf("%s batch committed %v", tc.name, res.Schedule)
		}
		mon := gate.Monitor()
		if ops := mon.Ops(); ops != 0 {
			t.Fatalf("%s batch left %d observed operations", tc.name, ops)
		}
		if live := mon.InFlightTxnIDs(); len(live) != 0 {
			t.Fatalf("%s batch left in-flight transactions: %v", tc.name, live)
		}
		if n := journal.Stats().Records; n != 0 {
			t.Fatalf("%s batch journaled %d records", tc.name, n)
		}
	}
}
