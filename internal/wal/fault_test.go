package wal_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/fault"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// injected builds an injecting mem backend from a set of rules — the
// shared setup of the fault tests, all of which now speak fault.Plan
// instead of the removed MemBackend hook closures.
func injected(rules ...fault.Rule) (*wal.MemBackend, *wal.InjectBackend, *fault.Injector) {
	mem := wal.NewMemBackend()
	inj := fault.NewInjector(fault.Plan{Rules: rules})
	return mem, wal.NewInjectBackend(mem, inj, "wal"), inj
}

// TestTransientSyncErrorsRetried pins the bounded-retry path: fsync
// failures under the retry budget are absorbed (counted in Retries),
// the writer stays healthy, and the log recovers in full.
func TestTransientSyncErrorsRetried(t *testing.T) {
	mem, b, _ := injected(fault.Rule{Op: fault.OpSync, From: 1, Count: 2, Kind: fault.KindError})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{seed: 5, nTxns: 4, steps: 30, gated: true, commitPct: 10})
	if err := w.Err(); err != nil {
		t.Fatalf("transient sync errors went fail-stop: %v", err)
	}
	if st := w.Stats(); st.Retries < 2 {
		t.Fatalf("Retries=%d, want >= 2", st.Retries)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "transient sync", rec, m, 4)
}

// TestPersistentSyncErrorFailStop pins the fail-stop degradation: once
// the retry budget is exhausted the error is sticky, Barrier reports
// it, and every further append is a no-op that does not advance Seq —
// the writer never acknowledges what it cannot make durable.
func TestPersistentSyncErrorFailStop(t *testing.T) {
	_, b, _ := injected(fault.Rule{Op: fault.OpSync, From: 1, Count: 0, Kind: fault.KindError, Msg: "device gone"})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.LogObserve(txn.W(1, "x0", 1))
	if err := w.Err(); err == nil {
		t.Fatal("persistent sync failure did not go fail-stop")
	} else if !strings.Contains(err.Error(), "fail-stop") {
		t.Fatalf("error %q does not mark fail-stop", err)
	} else if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("fail-stop error %q does not wrap the injected fault", err)
	}
	if err := w.Barrier(); err == nil {
		t.Fatal("Barrier reported healthy after fail-stop")
	}
	records, seq := w.Stats().Records, w.Seq()
	w.LogObserve(txn.W(1, "x1", 1))
	w.LogCommit(1)
	w.LogCompact(nil, core.CompactStats{}, 2)
	if got := w.Stats().Records; got != records {
		t.Fatalf("appends after fail-stop recorded: %d -> %d", records, got)
	}
	if got := w.Seq(); got != seq {
		t.Fatalf("Seq=%d after emissions during fail-stop, want %d", got, seq)
	}
	if got := w.Stats().Retries; got != 2 {
		t.Fatalf("Retries=%d, want 2", got)
	}
}

// TestShortWritesRetried pins torn-write handling on the happy path: a
// backend that tears every chunk in half forces the writer to retry
// the remainder (the torn prefix is already stored, exactly like a
// short OS write), and the finished log must still decode and recover
// byte-for-byte.
func TestShortWritesRetried(t *testing.T) {
	mem, b, _ := injected(fault.Rule{Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindTorn})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 2, SnapshotEvery: 1, MaxRetries: 16})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 17, nTxns: 4, steps: 60, gated: true, commitPct: 12, retractPct: 4, compactEvery: 9,
	})
	if err := w.Err(); err != nil {
		t.Fatalf("short writes went fail-stop: %v", err)
	}
	if st := w.Stats(); st.Retries == 0 {
		t.Fatal("short writes were never retried")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "short writes", rec, m, 4)
}

// TestHardWriteErrorFailStop pins the other fail-stop trigger: a write
// that keeps failing past the retry budget, accepting one byte per
// attempt (a torn frame). The torn tail it leaves must still recover
// to a consistent durable prefix.
func TestHardWriteErrorFailStop(t *testing.T) {
	mem, b, _ := injected(fault.Rule{Op: fault.OpWrite, From: 11, Count: 0, Kind: fault.KindTorn, TornBytes: 1})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	m.SetAutoCompact(0)
	m.SetSink(w)
	steps := 0
	for i := 0; w.Err() == nil && i < 100; i++ {
		m.Observe(txn.W(1+i%3, walItems[i%len(walItems)], 1))
		steps++
	}
	m.SetSink(nil)
	if err := w.Err(); err == nil {
		t.Fatal("hard write errors never went fail-stop")
	}
	// The backend holds a durable prefix with a torn tail; recovery
	// must land on a consistent prefix of what was appended.
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatalf("recover after fail-stop: %v", err)
	}
	if !info.Torn {
		t.Fatal("fail-stop tail not reported torn")
	}
	if info.LastSeq >= uint64(steps) {
		t.Fatalf("LastSeq=%d, want < %d appended events", info.LastSeq, steps)
	}
	ref := core.NewMonitor(walPartition())
	ref.SetAutoCompact(0)
	for i := 0; i < int(info.LastSeq); i++ {
		ref.Observe(txn.W(1+i%3, walItems[i%len(walItems)], 1))
	}
	compareMonitors(t, "fail-stop prefix", rec, ref, 3)
}

// TestSnapshotCutFailureContinues pins the cut-abandonment path: a
// fresh segment that cannot be written abandons the snapshot
// (CutFailures), the writer continues on the old segment without
// fail-stop, and the log still recovers in full from the genesis
// segment.
func TestSnapshotCutFailureContinues(t *testing.T) {
	mem, b, _ := injected(fault.Rule{
		Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError,
		ExceptFile: "00000000.wal", Msg: "no space for a new segment",
	})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 23, nTxns: 4, steps: 60, gated: true, commitPct: 15, compactEvery: 8,
	})
	if err := w.Err(); err != nil {
		t.Fatalf("cut failure escalated to fail-stop: %v", err)
	}
	st := w.Stats()
	if st.CutFailures == 0 {
		t.Fatal("no cut failure recorded")
	}
	if st.Snapshots != 0 {
		t.Fatalf("Snapshots=%d with a failing fresh segment", st.Snapshots)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.Segment != 0 {
		t.Fatalf("recovered from segment %d, want genesis", info.Segment)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "cut failure", rec, m, 4)
}

// TestSnapshotCutSyncRetried pins that a snapshot cut's sync on the
// fresh segment draws on the retry budget like its write does: a sync
// glitch one occurrence wide is retried and the cut holds, where an
// unretried sync would abandon it. The injector counts syncs per
// (site, op), not per file, so the test asserts the rule fired.
func TestSnapshotCutSyncRetried(t *testing.T) {
	mem, b, inj := injected(fault.Rule{Op: fault.OpSync, File: "00000001.wal", From: 11, Count: 1, Kind: fault.KindError})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 23, nTxns: 4, steps: 60, gated: true, commitPct: 15, compactEvery: 8,
	})
	if got := inj.FiredErrors("wal", fault.OpSync); got != 1 {
		t.Fatalf("sync rule fired %d times, want 1", got)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("one sync glitch went fail-stop: %v", err)
	}
	if st := w.Stats(); st.CutFailures != 0 || st.Retries != 1 || st.Snapshots != 7 {
		t.Fatalf("CutFailures=%d Retries=%d Snapshots=%d, want 0, 1 and 7", st.CutFailures, st.Retries, st.Snapshots)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "cut sync retried", rec, m, 4)
}

// TestCloseAfterFailStop pins Close on a fail-stopped writer: the
// retries run at once up to MaxRetries, and Close, which writes nothing
// more, returns the sticky fail-stop error wrapping the injected fault.
func TestCloseAfterFailStop(t *testing.T) {
	// From 1: the device dies right after construction, so the first
	// flush (genesis header plus the first record) never lands.
	_, b, _ := injected(fault.Rule{Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError, Msg: "device dead"})
	const retries = 5
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, MaxRetries: retries})
	if err != nil {
		t.Fatal(err)
	}
	w.LogObserve(txn.R(1, "a", 1))
	if got := w.Stats().Retries; got != retries {
		t.Fatalf("Retries=%d, want %d", got, retries)
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close after fail-stop reported success")
	}
	if !errors.Is(err, fault.ErrInjected) || err != w.Err() {
		t.Fatalf("Close returned %v, want the sticky fail-stop error %v wrapping the injected fault", err, w.Err())
	}
}

// TestGroupFlushFaults runs the fault shapes at group sizes above one,
// where a fault lands on a flush that carries a whole group of commits
// and the records between them: a write error, a torn write and a sync
// error, each transient (inside the retry budget) or persistent (past
// it). The stream is long enough for the third flush to happen at g16.
// A run that ends healthy must close durable in full; a fail-stopped
// one must recover a prefix verdict-identical to the absorbed stream,
// short of it by at most the one group whose flush failed: no more
// than group commit records. The standby=false suffix keeps the
// subtest names comparable across runs of older revisions.
func TestGroupFlushFaults(t *testing.T) {
	shapes := []struct {
		name string
		op   fault.Op
		kind fault.Kind
	}{
		{"write_error", fault.OpWrite, fault.KindError},
		{"torn_write", fault.OpWrite, fault.KindTorn},
		{"sync_error", fault.OpSync, fault.KindError},
	}
	for _, group := range []int{2, 16} {
		for _, sh := range shapes {
			for _, persistent := range []bool{false, true} {
				name := fmt.Sprintf("g%d/%s/persistent=%v/standby=false", group, sh.name, persistent)
				t.Run(name, func(t *testing.T) {
					count := int64(2) // MaxRetries 2 absorbs two failures
					if persistent {
						count = 0
					}
					mem, b, inj := injected(fault.Rule{Op: sh.op, From: 3, Count: count, Kind: sh.kind, Msg: "device fault"})
					w, err := wal.NewWriter(b, wal.Options{GroupEvery: group, SnapshotEvery: -1, MaxRetries: 2})
					if err != nil {
						t.Fatal(err)
					}
					m := core.NewMonitor(walPartition())
					applied := runWorkload(t, m, w, workloadCfg{
						seed: 61, nTxns: 4, steps: 720, gated: true, commitPct: 12, retractPct: 5, compactEvery: 10,
					})
					if inj.Fired() == 0 {
						t.Fatal("the fault never fired; retune the workload")
					}
					if persistent {
						if w.Err() == nil {
							t.Fatal("a persistent fault did not fail-stop")
						}
						if err := w.Close(); err == nil {
							t.Fatal("Close of a fail-stopped writer reported success")
						}
						absorbed := applied[:w.Seq()]
						rec, info, err := wal.Recover(mem, walPartition())
						if err != nil {
							t.Fatalf("recover after fail-stop: %v", err)
						}
						if info.LastSeq > uint64(len(absorbed)) {
							t.Fatalf("LastSeq=%d for %d absorbed events", info.LastSeq, len(absorbed))
						}
						lost := 0
						for _, ev := range absorbed[info.LastSeq:] {
							if ev.Kind == core.EventCommit {
								lost++
							}
						}
						if lost > group {
							t.Fatalf("LastSeq=%d for %d absorbed events lost %d commits, group %d", info.LastSeq, len(absorbed), lost, group)
						}
						compareMonitors(t, "fail-stop prefix", rec, newReference(absorbed).at(int(info.LastSeq)), 4)
						return
					}
					if err := w.Err(); err != nil {
						t.Fatalf("fault was not absorbed: %v", err)
					}
					if st := w.Stats(); st.Retries < 2 {
						t.Fatalf("Retries=%d, want >= 2", st.Retries)
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					rec, info, err := wal.Recover(mem, walPartition())
					if err != nil {
						t.Fatal(err)
					}
					if info.LastSeq != uint64(len(applied)) || info.Torn {
						t.Fatalf("LastSeq=%d torn=%v, want %d and a clean log", info.LastSeq, info.Torn, len(applied))
					}
					compareMonitors(t, "closed", rec, m, 4)
				})
			}
		}
	}
}
