package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"pwsr/internal/core"
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
		rec2, err := ReplayCancelCase(rec1.CancelCase)
		if err != nil {
			t.Fatalf("replay of seed %d failed: %v", seed, err)
		}
		if rec1.Outcome != rec2.Outcome || rec1.Events != rec2.Events {
			t.Fatalf("replay of seed %d diverged: %+v vs %+v", seed, rec1, rec2)
		}
	}
}

// TestDrainUnderOutage pins the drain deadline under a persistent
// journal outage: a DegradeBuffer gate with a queue it can never heal
// must trip to shed at the drain deadline with a typed
// exec.ErrDeadline error — not wait on Heal forever — and surface the
// dropped events and the shed posture in Health.
func TestDrainUnderOutage(t *testing.T) {
	plan := fault.Plan{Rules: []fault.Rule{
		{Site: "wal/primary", Op: fault.OpSync, From: 3, Count: 0, Kind: fault.KindError, Msg: "primary dead"},
		{Site: "wal/standby", Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError, Msg: "standby dead"},
	}}
	inj := fault.NewInjector(plan)
	primary := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/primary")
	standby := wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/standby")
	fb := wal.NewFailoverBackend(primary, standby)
	w, err := wal.NewWriter(fb, wal.Options{GroupEvery: 1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	partition := []state.ItemSet{state.NewItemSet("a", "b", "c")}
	gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	gate.AttachJournal(w, sched.WithDegradeMode(sched.DegradeBuffer), sched.WithBufferCap(64))

	items := []string{"a", "b", "c"}
	for i := 1; i <= 6; i++ {
		ops := []txn.Op{txn.W(i, items[i%len(items)], int64(i))}
		if err := gate.AdmitTxn(ops); err != nil {
			t.Fatalf("buffered admission %d refused: %v", i, err)
		}
	}
	if h := gate.Health(); h.Mode != exec.ModeBuffering {
		t.Fatalf("pre-drain mode = %v, want buffering (health %+v)", h.Mode, h)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	derr := gate.Drain(dctx)
	elapsed := time.Since(start)
	if derr == nil {
		t.Fatal("drain under a persistent outage returned nil")
	}
	if !errors.Is(derr, exec.ErrDeadline) {
		t.Fatalf("drain error = %v, want exec.ErrDeadline", derr)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("drain waited on Heal: %v elapsed for a 60ms deadline", elapsed)
	}
	h := gate.Health()
	if h.Mode != exec.ModeShed {
		t.Fatalf("post-drain mode = %v, want shed (health %+v)", h.Mode, h)
	}
	if h.Dropped == 0 {
		t.Fatalf("tripped drain reports no dropped events (health %+v)", h)
	}
	if !h.Draining {
		t.Fatalf("post-drain health does not surface draining (health %+v)", h)
	}
}

// TestSnapshotPinnedAcrossDrain pins the reader contract across a
// drain: a StoreSnapshot acquired before Drain stays readable until
// Release even though the drain's final compact pass advances the
// retention floor past its stamp, and only after Release is the stamp
// retired.
func TestSnapshotPinnedAcrossDrain(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 5, MovesPerProgram: 2, Seed: 11})
	gate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, 2), &sched.Serial{}, nil)
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
