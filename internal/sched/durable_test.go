package sched_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
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

// TestDurableGateJournalsAndRecovers runs the gate with a write-ahead
// journal attached and a snapshot every other segment: the run's
// lifecycle stream, aborts' Retract records included, lands in the log,
// the engine surfaces the journal counters in Metrics.Gate.Log, and
// recovering the log rebuilds a monitor verdict-identical to the gate's.
func TestDurableGateJournalsAndRecovers(t *testing.T) {
	requireDurableGateRecovers(t, 2)
}

// TestOptimisticDurableGateRecovers is the same check with a snapshot
// at every segment, so recovery starts from the newest snapshot.
func TestOptimisticDurableGateRecovers(t *testing.T) {
	requireDurableGateRecovers(t, 1)
}

// requireDurableGateRecovers runs an aborting workload under a
// journaled gate snapshotting every `every` segments and demands the
// recovered monitor match the gate's.
func requireDurableGateRecovers(t *testing.T, every int) {
	t.Helper()
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 4, MovesPerProgram: 3, Style: gen.StyleFixed, Seed: 601,
	})
	b := wal.NewMemBackend()
	jw, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: every})
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
	if res.Metrics.Aborts == 0 {
		t.Fatal("vacuous: the run aborted nothing, so the log holds no Retract")
	}
	if res.Metrics.Gate.Log.Records == 0 {
		t.Fatal("journaled run reported no log records")
	}
	if got, want := res.Metrics.Gate.Log.Records, jw.Stats().Records; got != want {
		t.Fatalf("Metrics.Gate.Log.Records=%d, want writer's %d", got, want)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := wal.Recover(b, w.DataSets)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	requireSameCertState(t, fmt.Sprintf("snapshot every %d", every), rec, mon, len(w.DataSets))
}

// TestResumeCertifyContinues crashes a journaled gate between two
// workload phases: phase one's log is resumed into a fresh gate
// (sched.ResumeCertify), phase two runs on the resumed gate with fresh
// transaction ids, and the final log must recover to the resumed
// gate's end state — certification continuity across a restart.
func TestResumeCertifyContinues(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 2, Programs: 2, MovesPerProgram: 2, Style: gen.StyleFixed, Seed: 700,
	})
	opts := wal.Options{GroupEvery: 1, SnapshotEvery: 2}
	b := wal.NewMemBackend()
	jw, err := wal.NewWriter(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(w.DataSets)
	gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(0), nil)
	gate.AttachJournal(jw)
	if _, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the process is gone, the backend remains.
	// (No Close — whatever the barriers made durable is the log.)
	resumed, info, err := sched.ResumeCertify(b, w.DataSets, opts, sched.NewRandom(1), nil)
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
		t.Fatal(err)
	}
	if err := resumed.Journal().(*wal.Writer).Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := wal.Recover(b, w.DataSets)
	if err != nil {
		t.Fatalf("final recover: %v", err)
	}
	requireSameCertState(t, "after phase two", rec, resumedMon, len(w.DataSets))
}

// TestJournalFailStopStalls pins the write-ahead contract's failure
// mode: a journal that cannot make grants durable freezes the gate,
// and the run surfaces exec.ErrJournalDown — distinguishable from a
// scheduling-livelock ErrStall — instead of acknowledging non-durable
// admissions.
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
	t.Run("optimistic", func(t *testing.T) {
		gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), nil)
		gate.AttachJournal(newBroken(t))
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

// syncedBackend is an in-memory backend that remembers how much of each
// segment a Sync covered: its crashImage is what a machine crash would
// leave, every segment cut to its synced length.
type syncedBackend struct {
	*wal.MemBackend
	synced map[string]int
}

func newSyncedBackend() *syncedBackend {
	return &syncedBackend{MemBackend: wal.NewMemBackend(), synced: make(map[string]int)}
}

func (b *syncedBackend) Create(name string) (wal.File, error) {
	f, err := b.MemBackend.Create(name)
	if err != nil {
		return nil, err
	}
	b.synced[name] = 0
	return &syncedFile{File: f, b: b, name: name}, nil
}

func (b *syncedBackend) crashImage() *wal.MemBackend {
	image := wal.NewMemBackend()
	names, _ := b.List()
	for _, name := range names {
		image.Put(name, b.Bytes(name)[:b.synced[name]])
	}
	return image
}

type syncedFile struct {
	wal.File
	b       *syncedBackend
	name    string
	written int
}

func (f *syncedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written += n
	return n, err
}

func (f *syncedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.b.synced[f.name] = f.written
	return nil
}

// TestAcknowledgedCommitsDurable pins durability at acknowledgment: a
// run's commits are owed to the log when the run reports them, so once
// RunCtx or a ParallelEngine batch returns, a machine crash keeps every
// record the writer absorbed — under a group of 16 commits that the
// round's 12 never fill. The round has the CAD shape: ten designers
// each in one of four conjuncts, two sweeps across all four.
func TestAcknowledgedCommitsDurable(t *testing.T) {
	var partition []state.ItemSet
	initial := state.NewDB()
	for c := range 4 {
		x, y := fmt.Sprintf("x%d", c), fmt.Sprintf("y%d", c)
		partition = append(partition, state.NewItemSet(x, y))
		initial.Set(x, state.Int(0))
		initial.Set(y, state.Int(0))
	}
	programs := make(map[int]*program.Program)
	ids := make([]int, 0, 12)
	for id := 1; id <= 12; id++ {
		ids = append(ids, id)
		if id > 10 {
			programs[id] = program.MustParse(fmt.Sprintf("program S%d { x0 := x0 + 1; x1 := x1 + 1; x2 := x2 + 1; x3 := x3 + 1; }", id))
			continue
		}
		c := id % 4
		programs[id] = program.MustParse(fmt.Sprintf("program D%d { t := x%d; y%d := y%d + t; x%d := t + 1; }", id, c, c, c, c))
	}
	for _, leg := range []string{"tick", "parallel"} {
		t.Run(leg, func(t *testing.T) {
			b := newSyncedBackend()
			w, err := wal.NewWriter(b, wal.Options{GroupEvery: 16, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			mon := core.NewMonitor(partition)
			mon.SetAutoCompact(0) // every committed transaction stays resident
			gate := sched.NewOptimisticCertifyOver(mon, &sched.RoundRobin{}, nil)
			gate.AttachJournal(w)
			if leg == "tick" {
				_, err = exec.RunCtx(context.Background(), exec.Config{
					Programs: programs, Initial: initial, Policy: gate, DataSets: partition,
				})
			} else {
				_, err = exec.NewParallelEngine(exec.ParallelConfig{Initial: initial, Gate: gate, Workers: 2}).
					ExecuteBatchCtx(context.Background(), programs)
			}
			if err != nil {
				t.Fatal(err)
			}
			rec, info, err := wal.Recover(b.crashImage(), partition)
			if err != nil {
				t.Fatalf("recover the crash image: %v", err)
			}
			if info.LastSeq != w.Seq() {
				t.Fatalf("the crash image ends at record %d of %d: acknowledged commits were not durable", info.LastSeq, w.Seq())
			}
			if got := rec.LiveTxnIDs(); !slices.Equal(got, ids) || len(rec.InFlightTxnIDs()) != 0 {
				t.Fatalf("the crash image holds %v with %v in flight, want every one of %v committed", got, rec.InFlightTxnIDs(), ids)
			}
			if st := w.Stats(); st.Fsyncs != 1 {
				t.Fatalf("%d fsyncs for a round of 12 commits under a group of 16, want the one at the acknowledgment", st.Fsyncs)
			}
		})
	}
}
