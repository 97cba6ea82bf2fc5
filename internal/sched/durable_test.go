package sched_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/wal"
)

// durableCertifier is the read-only slice of *core.Monitor the
// recovery comparisons need.
type durableCertifier interface {
	PWSR() bool
	Ops() int
	LiveTxnIDs() []int
	CompactStats() core.CompactStats
	ConflictEdges(e int) [][2]int
}

// requireSameCertState demands two certifiers agree on everything a
// verdict depends on: PWSR flag, surviving ops, live set, lifecycle
// counters, and every conjunct's conflict edges.
func requireSameCertState(t *testing.T, ctx string, got, want durableCertifier, conjuncts int) {
	t.Helper()
	if g, w := got.PWSR(), want.PWSR(); g != w {
		t.Fatalf("%s: PWSR=%v, want %v", ctx, g, w)
	}
	if g, w := got.Ops(), want.Ops(); g != w {
		t.Fatalf("%s: Ops=%d, want %d", ctx, g, w)
	}
	if g, w := got.LiveTxnIDs(), want.LiveTxnIDs(); !slices.Equal(g, w) {
		t.Fatalf("%s: LiveTxnIDs=%v, want %v", ctx, g, w)
	}
	if g, w := got.CompactStats(), want.CompactStats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CompactStats=%+v, want %+v", ctx, g, w)
	}
	for e := 0; e < conjuncts; e++ {
		if g, w := got.ConflictEdges(e), want.ConflictEdges(e); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: conjunct %d edges=%v, want %v", ctx, e, g, w)
		}
	}
}

// TestDurableGateJournalsAndRecovers runs the blocking gate with a
// write-ahead journal attached: the run's lifecycle stream lands in
// the log, the engine surfaces the journal counters in Metrics.Gate.Log,
// and recovering the log rebuilds a monitor verdict-identical to the
// gate's.
func TestDurableGateJournalsAndRecovers(t *testing.T) {
	completed := false
	for seed := int64(0); seed < 30 && !completed; seed++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: 500 + seed,
		})
		b := wal.NewMemBackend()
		jw, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewCertifyOver(mon, sched.NewRandom(seed))
		gate.AttachJournal(jw)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			if errors.Is(err, exec.ErrStall) {
				continue // a blocked gate may stall; try the next seed
			}
			t.Fatal(err)
		}
		completed = true
		if res.Metrics.Gate.Log.Records == 0 {
			t.Fatal("journaled run reported no log records")
		}
		if got, want := res.Metrics.Gate.Log.Records, jw.Stats().Records; got != want {
			t.Fatalf("Metrics.Gate.Log.Records=%d, want writer's %d", got, want)
		}
		if err := gate.Journal().(*wal.Writer).Close(); err != nil {
			t.Fatal(err)
		}
		rec, _, err := wal.Recover(b, w.DataSets)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		requireSameCertState(t, "blocking gate", rec, mon, len(w.DataSets))
	}
	if !completed {
		t.Fatal("no seed completed under the journaled gate")
	}
}

// TestOptimisticDurableGateRecovers is the abort-capable twin: aborts
// put Retract records in the log, and the recovered monitor must still
// match the gate's exactly.
func TestOptimisticDurableGateRecovers(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 4, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 601,
	})
	b := wal.NewMemBackend()
	jw, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(w.DataSets)
	gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(2), nil)
	gate.AttachJournal(jw)
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   gate,
		DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Gate.Log.Records == 0 {
		t.Fatal("journaled run reported no log records")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := wal.Recover(b, w.DataSets)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	requireSameCertState(t, "optimistic gate", rec, mon, len(w.DataSets))
}

// TestResumeCertifyContinues crashes a journaled gate between two
// workload phases: phase one's log is resumed into a fresh gate
// (sched.ResumeCertify), phase two runs on the resumed gate with fresh
// transaction ids, and the final log must recover to the resumed
// gate's end state — certification continuity across a restart.
func TestResumeCertifyContinues(t *testing.T) {
	completed := false
	for seed := int64(0); seed < 40 && !completed; seed++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 2, MovesPerProgram: 2, Style: gen.StyleFixed, Seed: 700 + seed,
		})
		opts := wal.Options{GroupEvery: 1, SnapshotEvery: 2}
		b := wal.NewMemBackend()
		jw, err := wal.NewWriter(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		mon := core.NewMonitor(w.DataSets)
		gate := sched.NewCertifyOver(mon, sched.NewRandom(seed))
		gate.AttachJournal(jw)
		if _, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		}); err != nil {
			if errors.Is(err, exec.ErrStall) {
				continue
			}
			t.Fatal(err)
		}
		// Simulate the crash: the process is gone, the backend remains.
		// (No Close — whatever the barriers made durable is the log.)
		resumed, info, err := sched.ResumeCertify(b, w.DataSets, opts, sched.NewRandom(seed+1))
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if info.LastSeq == 0 {
			t.Fatal("resume found an empty durable prefix")
		}
		// Resume compacts before cutting its baseline; mirror the pass on
		// the crashed gate's monitor so the lineages stay comparable.
		mon.SetSink(nil)
		mon.Compact()
		resumedMon := resumed.Monitor().(*core.Monitor) // what wal.Resume rebuilt
		requireSameCertState(t, "resumed gate", resumedMon, mon, len(w.DataSets))

		// Phase two: the same programs under fresh transaction ids.
		phase2 := make(map[int]*program.Program, len(w.Programs))
		for id, p := range w.Programs {
			phase2[id+100] = p
		}
		if _, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: phase2, Initial: w.Initial, Policy: resumed, DataSets: w.DataSets,
		}); err != nil {
			if errors.Is(err, exec.ErrStall) {
				continue
			}
			t.Fatal(err)
		}
		completed = true
		if err := resumed.Journal().(*wal.Writer).Close(); err != nil {
			t.Fatal(err)
		}
		rec, _, err := wal.Recover(b, w.DataSets)
		if err != nil {
			t.Fatalf("final recover: %v", err)
		}
		requireSameCertState(t, "after phase two", rec, resumedMon, len(w.DataSets))
	}
	if !completed {
		t.Fatal("no seed completed both phases")
	}
}

// TestJournalFailStopStalls pins the write-ahead contract's failure
// mode: a journal that cannot make grants durable freezes the gate,
// and the run surfaces exec.ErrJournalDown — distinguishable from a
// scheduling-livelock ErrStall — instead of acknowledging non-durable
// admissions. For both gate flavors.
func TestJournalFailStopStalls(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: 801,
	})
	newBroken := func(t *testing.T) *wal.Writer {
		b := wal.NewInjectBackend(wal.NewMemBackend(),
			fault.NewInjector(fault.Plan{Rules: []fault.Rule{
				{Op: fault.OpSync, From: 1, Count: 0, Kind: fault.KindError, Msg: "device gone"},
			}}), "wal")
		jw, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		return jw
	}
	for _, flavor := range []string{"blocking", "optimistic"} {
		t.Run(flavor, func(t *testing.T) {
			var gate interface {
				exec.Policy
				JournalErr() error
				Health() exec.Health
			}
			switch flavor {
			case "blocking":
				g := sched.NewCertify(w.DataSets, sched.NewRandom(1))
				g.AttachJournal(newBroken(t))
				gate = g
			default:
				g := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), nil)
				g.AttachJournal(newBroken(t))
				gate = g
			}
			_, err := exec.RunCtx(context.Background(), exec.Config{
				Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
			})
			if !errors.Is(err, exec.ErrJournalDown) {
				t.Fatalf("err=%v, want ErrJournalDown", err)
			}
			if errors.Is(err, exec.ErrStall) {
				t.Fatalf("journal outage %v still conflated with ErrStall", err)
			}
			if gate.JournalErr() == nil {
				t.Fatal("gate froze without recording the journal error")
			}
			if h := gate.Health(); !h.FailStopLatched || h.Mode != exec.ModeFailStop {
				t.Fatalf("health = %+v, want latched fail-stop", h)
			}
		})
	}
}
