package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// requireTrial returns a check that fails the test on a trial's error,
// first dumping a *TrialFailure as <kind>-failed-<seed>.json (the CI
// artifact). A cancel dump replays in TestCancelReplay once moved under
// testdata/cancel; a chaos dump is for reading, and its seed replays.
func requireTrial(t *testing.T, kind string) func(TrialRecord, error) TrialRecord {
	return func(rec TrialRecord, err error) TrialRecord {
		t.Helper()
		var tf *TrialFailure
		if errors.As(err, &tf) {
			name := fmt.Sprintf("%s-failed-%d.json", kind, tf.Seed)
			if werr := os.WriteFile(name, tf.JSON(), 0o644); werr == nil {
				t.Logf("failing trial dumped to %s", name)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
}

// TestChaosSmoke is the deterministic chaos slice: a fixed band of
// seeds covering every leg, fault case and outcome (verified by the
// coverage assertion), each trial lockstep-compared against its
// uninjected twin.
func TestChaosSmoke(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rec := requireTrial(t, "chaos")(RunChaosTrial(seed))
		seen[rec.Leg], seen[rec.Case], seen[rec.Outcome] = true, true, true
	}
	for _, want := range append([]string{"tick", "batch", "completed", "degraded"}, chaosCases...) {
		if !seen[want] {
			t.Fatalf("smoke band never produced %q; retune the seed band", want)
		}
	}
}

// TestChaosDifferential is the ROBUST1 acceptance run: ≥100 seeded
// randomized fault plans over the full pipeline (make check runs it
// under -race at GOMAXPROCS=1 and 8).
func TestChaosDifferential(t *testing.T) {
	trials := int64(120)
	if testing.Short() {
		trials = 30
	}
	for seed := int64(1000); seed < 1000+trials; seed++ {
		requireTrial(t, "chaos")(RunChaosTrial(seed))
	}
}

// TestTrialSeedsPinned pins what a few seeds draw, as read before the
// chaos and cancel harnesses shared one trial: every leg, chaos case
// and outcome. A harness edit that reorders an rng draw fails a named
// row instead of silently running other trials under the same seeds.
func TestTrialSeedsPinned(t *testing.T) {
	for _, row := range []struct {
		kind string
		seed int64
		want string // leg/case/outcome fired events recovered-seq
	}{
		{"chaos", 1, "tick/total-outage/degraded fired=2 events=4 seq=4"},
		{"chaos", 2, "tick/persistent-primary/degraded fired=4 events=8 seq=8"},
		{"chaos", 3, "tick/transient-primary/completed fired=2 events=40 seq=40"},
		{"chaos", 4, "tick/clean/completed fired=2 events=86 seq=86"},
		{"chaos", 11, "batch/total-outage/degraded fired=2 events=12 seq=12"},
		{"chaos", 15, "batch/clean/completed fired=0 events=36 seq=36"},
		{"cancel", 4, "tick//canceled fired=1 events=10 seq=10"},
		{"cancel", 2, "batch//canceled fired=1 events=18 seq=18"},
		{"cancel", 56, "batch//completed fired=0 events=36 seq=36"},
		{"cancel", 15, "drain//canceled fired=1 events=9 seq=9"},
	} {
		t.Run(fmt.Sprintf("%s-%d", row.kind, row.seed), func(t *testing.T) {
			run := RunChaosTrial
			if row.kind == "cancel" {
				run = RunCancelTrial
			}
			rec := requireTrial(t, row.kind)(run(row.seed))
			got := fmt.Sprintf("%s/%s/%s fired=%d events=%d seq=%d", rec.Leg, rec.Case, rec.Outcome, rec.Fired, rec.Events, rec.RecoveredSeq)
			if got != row.want {
				t.Errorf("seed %d drew %s, want %s", row.seed, got, row.want)
			}
		})
	}
}

// TestCancelMatrix is the cancel-at-every-point differential: seeded
// trials arm one deterministic cancel point each (admission ticks,
// journal writes and syncs, commit turns, drain steps) and check the
// typed-error, no-partial-grant, and no-lost-admission obligations.
func TestCancelMatrix(t *testing.T) {
	counts := map[string]int{}
	for seed := int64(1); seed <= 66; seed++ {
		rec := requireTrial(t, "cancel")(RunCancelTrial(seed))
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

// TestCancelReplay pins the replay contract the failure artifacts rely
// on — re-running a drawn trial yields the identical record — then
// replays every trial checked in under testdata/cancel through the same
// differential.
func TestCancelReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rec1, err := RunCancelTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		rec2, err := RunCancelCase(rec1.Trial)
		if err != nil {
			t.Fatalf("replay of seed %d failed: %v", seed, err)
		}
		if !reflect.DeepEqual(rec1, rec2) {
			t.Fatalf("replay of seed %d diverged: %+v vs %+v", seed, rec1, rec2)
		}
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "cancel", "*.json"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no cancel trials under testdata/cancel (%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var c Trial
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := RunCancelCase(c); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

// TestCancelCaseRejectsUnknownNames pins RunCancelCase's input
// contract: a trial naming an unknown leg is refused with a
// *TrialFailure naming the field, never run as some default.
func TestCancelCaseRejectsUnknownNames(t *testing.T) {
	for _, leg := range []string{"tock", ""} {
		_, err := RunCancelCase(Trial{Seed: 3, Leg: leg})
		var tf *TrialFailure
		if !errors.As(err, &tf) || !strings.Contains(tf.Reason, "unknown leg") {
			t.Errorf("leg %q: err = %v, want a *TrialFailure naming the leg", leg, err)
		}
	}
}

// TestDrainUnderOutage pins the drain under a persistent journal
// outage: once the dead primary has refused an admission, Drain
// returns exec.ErrJournalDown promptly, leaves no transaction in
// flight, and Health surfaces the draining posture. The subtest keeps
// the name of the posture it pins.
func TestDrainUnderOutage(t *testing.T) {
	t.Run("fail-stop", func(t *testing.T) {
		plan := fault.Plan{Rules: []fault.Rule{
			{Site: "wal/primary", Op: fault.OpSync, From: 3, Count: 0, Kind: fault.KindError, Msg: "primary dead"},
		}}
		primary := wal.NewInjectBackend(wal.NewMemBackend(), fault.NewInjector(plan), "wal/primary")
		w, err := wal.NewWriter(primary, wal.Options{GroupEvery: 1, MaxRetries: 1})
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
			t.Fatal("the dead primary never refused an admission — the test is vacuous")
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
