package sched_test

import (
	"context"
	"errors"
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

// TestDrainFailsWhenJournalRefuses pins Drain's durability verdict: a
// drain whose journal refuses a record — an admission's, the final
// compact pass's, or the snapshot cut's — latches the gate's fail-stop
// and returns exec.ErrJournalDown, with the latched cause in Health and
// the gate left draining; a healthy journal drains to nil and a
// snapshot. The rows keep the posture they pin in their names.
func TestDrainFailsWhenJournalRefuses(t *testing.T) {
	// Three single-write admissions, then the drain's compact record and
	// its snapshot cut, which with GroupEvery 1 are backend writes 7
	// and 8.
	faults := []struct {
		name     string
		from     int64 // first failing backend write; 0 = none
		admitted int   // admissions acknowledged before the fault
	}{
		{"none", 0, 3},
		{"at-admission", 4, 1},
		{"at-compact", 7, 3},
		{"at-cut", 8, 3},
	}
	for _, f := range faults {
		t.Run("fail-stop/"+f.name, func(t *testing.T) {
			var rules []fault.Rule
			if f.from > 0 {
				rules = append(rules, fault.Rule{Op: fault.OpWrite, From: f.from, Kind: fault.KindError, Msg: "dead"})
			}
			jw, _ := brokenWriter(t, wal.Options{GroupEvery: 1, SnapshotEvery: -1}, rules...)
			gate := sched.NewOptimisticCertify([]state.ItemSet{state.NewItemSet("a")}, &sched.Serial{}, nil)
			gate.AttachJournal(jw)
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
				if err != nil || h.JournalErr != nil || jw.Stats().Snapshots == snaps {
					t.Fatalf("clean drain: err=%v journal=%v snapshots %d -> %d", err, h.JournalErr, snaps, jw.Stats().Snapshots)
				}
				return
			}
			if !errors.Is(err, exec.ErrJournalDown) {
				t.Fatalf("drain = %v, want ErrJournalDown", err)
			}
			if h.JournalErr == nil {
				t.Fatal("refused drain left no latched cause in Health")
			}
			if got := jw.Stats().Snapshots; got != snaps {
				t.Fatalf("refused drain cut a snapshot (snapshots %d -> %d)", snaps, got)
			}
		})
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
