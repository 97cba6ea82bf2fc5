package sched_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
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
	gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), nil)
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

// TestDrainFailsWhenJournalRefuses pins Drain's durability verdict: a
// drain whose journal refuses a record — an admission's, or the final
// compact pass's — returns the gate's typed refusal (exec.ErrJournalDown
// under fail-stop, exec.ErrDegraded under shed), cuts no snapshot, and
// leaves the gate draining with the latch in Health; a healthy journal
// drains to nil and a snapshot.
func TestDrainFailsWhenJournalRefuses(t *testing.T) {
	modes := []struct {
		mode sched.DegradeMode
		want exec.Mode
		err  error
	}{
		{sched.DegradeFailStop, exec.ModeFailStop, exec.ErrJournalDown},
		{sched.DegradeShed, exec.ModeShed, exec.ErrDegraded},
	}
	// Three single-write admissions, then the drain's compact record,
	// which with GroupEvery 1 is backend write 7.
	faults := []struct {
		name     string
		from     int64 // first failing backend write; 0 = none
		admitted int   // admissions acknowledged before the fault
	}{
		{"none", 0, 3},
		{"at-admission", 4, 1},
		{"at-compact", 7, 3},
	}
	for _, m := range modes {
		for _, f := range faults {
			t.Run(fmt.Sprintf("%v/%s", m.want, f.name), func(t *testing.T) {
				var rules []fault.Rule
				if f.from > 0 {
					rules = append(rules, fault.Rule{Op: fault.OpWrite, From: f.from, Kind: fault.KindError, Msg: "dead"})
				}
				jw, _ := brokenWriter(t, wal.Options{GroupEvery: 1, SnapshotEvery: -1}, rules...)
				gate := sched.NewOptimisticCertify([]state.ItemSet{state.NewItemSet("a")}, &sched.Serial{}, nil)
				gate.AttachJournal(jw, sched.WithDegradeMode(m.mode))
				admitted := 0
				for id := 1; id <= 3; id++ {
					if gate.AdmitTxn([]txn.Op{txn.W(id, "a", int64(id))}) == nil {
						admitted++
					}
				}
				if admitted != f.admitted {
					t.Fatalf("admitted %d of 3, want %d", admitted, f.admitted)
				}
				snaps := jw.Stats().Snapshots
				err := gate.Drain(context.Background())
				h := gate.Health()
				if !h.Draining || len(gate.Monitor().InFlightTxnIDs()) != 0 {
					t.Fatalf("post-drain posture: draining=%v in-flight=%v", h.Draining, gate.Monitor().InFlightTxnIDs())
				}
				if f.from == 0 {
					if err != nil || h.Mode != exec.ModeOK || jw.Stats().Snapshots == snaps {
						t.Fatalf("clean drain: err=%v mode=%v snapshots %d -> %d", err, h.Mode, snaps, jw.Stats().Snapshots)
					}
					return
				}
				if !errors.Is(err, m.err) {
					t.Fatalf("drain = %v, want %v", err, m.err)
				}
				if h.Mode != m.want || h.JournalErr == nil {
					t.Fatalf("health = %v/%v, want %v with the latched cause", h.Mode, h.JournalErr, m.want)
				}
				if got := jw.Stats().Snapshots; got != snaps {
					t.Fatalf("refused drain cut a snapshot (snapshots %d -> %d)", snaps, got)
				}
			})
		}
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
	run := func(inj *fault.Injector) (*exec.Result, *core.Monitor) {
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(7), nil)
		if inj != nil {
			gate.SetFaultInjector(inj, "gate")
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, mon
	}
	want, wantMon := run(nil)
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "gate", Op: fault.OpTick, From: 1, Count: 4, Kind: fault.KindError},
		{Site: "gate", Op: fault.OpTick, From: 7, Count: 2, Kind: fault.KindLatency, Latency: 100},
	}})
	got, gotMon := run(inj)
	if inj.Fired() == 0 {
		t.Fatal("tick plan never fired")
	}
	if !reflect.DeepEqual(got.Schedule.Ops(), want.Schedule.Ops()) {
		t.Fatalf("tick faults changed the schedule:\n got %v\nwant %v", got.Schedule, want.Schedule)
	}
	requireSameCertState(t, "tick-injected gate", gotMon, wantMon, len(w.DataSets))
}
