package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// TestCancelMatrix is the cancel-at-every-point differential: seeded
// trials arm one deterministic cancel point each (admission ticks,
// journal writes and syncs, commit turns, drain steps) and check the
// typed-error, no-partial-grant, and no-lost-admission obligations. A
// violated obligation dumps the replayable case as
// cancel-failed-<seed>.json (replay with pwsrfuzz -mode cancel).
func TestCancelMatrix(t *testing.T) {
	const trials = 60
	counts := map[string]int{}
	for i := 0; i < trials; i++ {
		seed := int64(1 + i)
		rec, err := RunCancelTrial(seed)
		if err != nil {
			var cf *CancelFailure
			if errors.As(err, &cf) {
				name := fmt.Sprintf("cancel-failed-%d.json", cf.Case.Seed)
				if werr := os.WriteFile(name, cf.CaseJSON(), 0o644); werr == nil {
					t.Logf("replayable case dumped to %s", name)
				}
			}
			t.Fatal(err)
		}
		counts[rec.Leg+"/"+rec.Outcome]++
	}
	// The sweep must actually exercise cancellation on every leg — a
	// matrix whose armed points never fire proves nothing. (Drain
	// deadlines without a fired cancel are TestDrainUnderOutage's
	// territory; here the armed drain-step cancel fires first.)
	for _, k := range []string{"tick/canceled", "batch/canceled", "drain/canceled"} {
		if counts[k] == 0 {
			t.Fatalf("matrix never produced %s (counts: %v)", k, counts)
		}
	}
}

// TestCancelReplay pins the replay contract the corpus and the failure
// artifacts rely on: re-running a drawn case yields the identical
// record.
func TestCancelReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rec1, err := RunCancelTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		rec2, err := RunCancelCase(rec1.CancelCase)
		if err != nil {
			t.Fatalf("replay of seed %d failed: %v", seed, err)
		}
		if rec1.Outcome != rec2.Outcome || rec1.Events != rec2.Events {
			t.Fatalf("replay of seed %d diverged: %+v vs %+v", seed, rec1, rec2)
		}
	}
}

// TestCancelCaseRejectsUnknownNames pins RunCancelCase's input
// contract: a case naming an unknown leg is refused with a
// *CancelFailure naming the field, never run as some default.
func TestCancelCaseRejectsUnknownNames(t *testing.T) {
	for _, leg := range []string{"tock", ""} {
		_, err := RunCancelCase(CancelCase{Seed: 3, Leg: leg})
		var cf *CancelFailure
		if !errors.As(err, &cf) || !strings.Contains(cf.Reason, "unknown leg") {
			t.Errorf("leg %q: err = %v, want a *CancelFailure naming the leg", leg, err)
		}
	}
}

// TestDrainUnderOutage pins the drain under a persistent journal
// outage: once the dead failover chain has refused an admission, Drain
// returns exec.ErrJournalDown promptly, leaves no transaction in
// flight, and Health surfaces the draining posture. The subtest keeps
// the name of the posture it pins.
func TestDrainUnderOutage(t *testing.T) {
	t.Run("fail-stop", func(t *testing.T) {
		plan := fault.Plan{Rules: []fault.Rule{
			{Site: "wal/primary", Op: fault.OpSync, From: 3, Count: 0, Kind: fault.KindError, Msg: "primary dead"},
			{Site: "wal/standby", Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError, Msg: "standby dead"},
		}}
		inj := fault.NewInjector(plan)
		primary := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/primary")
		standby := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/standby")
		w, err := wal.NewWriter(wal.NewFailoverBackend(primary, standby), wal.Options{GroupEvery: 1, MaxRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()

		partition := []state.ItemSet{state.NewItemSet("a", "b", "c")}
		gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
		gate.AttachJournal(w)
		items := []string{"a", "b", "c"}
		refused := false
		for i := 1; i <= 6 && !refused; i++ {
			refused = gate.AdmitTxn([]txn.Op{txn.W(i, items[i%len(items)], int64(i))}) != nil
		}
		if !refused {
			t.Fatal("the dead chain never refused an admission — the test is vacuous")
		}

		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		derr := gate.Drain(dctx)
		if !errors.Is(derr, exec.ErrJournalDown) {
			t.Fatalf("drain error = %v, want ErrJournalDown", derr)
		}
		if dctx.Err() != nil {
			t.Fatal("drain under the outage waited out its deadline")
		}
		if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
			t.Fatalf("drain left in-flight transactions: %v", live)
		}
		if h := gate.Health(); !h.Draining {
			t.Fatalf("post-drain health does not surface draining (health %+v)", h)
		}
	})
}

// TestSnapshotPinnedAcrossDrain pins the reader contract across a
// drain: a StoreSnapshot acquired before Drain stays readable until
// Release even though the drain's final compact pass advances the
// retention floor past its stamp, and only after Release is the stamp
// retired.
func TestSnapshotPinnedAcrossDrain(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 5, MovesPerProgram: 2, Seed: 11})
	gate := sched.NewOptimisticCertify(w.DataSets, &sched.Serial{}, nil)
	eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.Initial, Gate: gate, Workers: 2})
	if _, err := eng.ExecuteBatchCtx(context.Background(), w.Programs); err != nil {
		t.Fatal(err)
	}

	store := eng.Store()
	sn := store.Acquire()
	pinStamp := sn.Stamp()
	want := sn.DB()

	// A second batch (ids above the first) moves the stamp past the
	// pin, so the drain's floor advancement has ground to cover.
	second := make(map[int]*program.Program, len(w.Programs))
	for id, p := range w.Programs {
		second[id+10] = p
	}
	if _, err := eng.ExecuteBatchCtx(context.Background(), second); err != nil {
		t.Fatal(err)
	}

	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if floor := store.Floor(); floor <= pinStamp {
		t.Fatalf("drain did not advance the floor past the pin (floor %d, pin %d) — test is vacuous", floor, pinStamp)
	}

	// The pinned snapshot still reads its full frozen view.
	for item, v := range want {
		got, ok := sn.Get(item)
		if !ok || !got.Equal(v) {
			t.Fatalf("pinned snapshot lost %q after drain: got %v, ok=%v, want %v", item, got, ok, v)
		}
	}

	sn.Release()
	if _, err := store.AcquireAt(pinStamp); !errors.Is(err, exec.ErrSnapshotRetired) {
		t.Fatalf("AcquireAt(%d) after release = %v, want ErrSnapshotRetired", pinStamp, err)
	}
}
