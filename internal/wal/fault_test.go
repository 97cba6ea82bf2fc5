package wal_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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
// it, and every further append is a no-op — the writer never
// acknowledges what it cannot make durable.
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
	records := w.Stats().Records
	w.LogObserve(txn.W(1, "x1", 1))
	w.LogCommit(1)
	w.LogCompact(nil, core.CompactStats{}, 2)
	if got := w.Stats().Records; got != records {
		t.Fatalf("appends after fail-stop recorded: %d -> %d", records, got)
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

// TestGroupFlushFaults runs the fault shapes at group sizes above one,
// where a fault lands on a flush that carries a whole group of commits
// and the records between them: a write error, a torn write and a sync
// error, each transient (inside the retry budget) or persistent (past
// it), with and without a standby. The stream is long enough for the
// third flush to happen at g16. A run that ends healthy must close
// durable in full; a fail-stopped one must recover a prefix
// verdict-identical to the absorbed stream, short of it by at most the
// one group whose flush failed: no more than group commit records.
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
				for _, standby := range []bool{false, true} {
					name := fmt.Sprintf("g%d/%s/persistent=%v/standby=%v", group, sh.name, persistent, standby)
					t.Run(name, func(t *testing.T) {
						count := int64(2) // MaxRetries 2 absorbs two failures
						if persistent {
							count = 0
						}
						inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
							{Site: "wal/primary", Op: sh.op, From: 3, Count: count, Kind: sh.kind, Msg: "device fault"},
						}})
						primary, spare := wal.NewMemBackend(), wal.NewMemBackend()
						var b wal.Backend = wal.NewInjectBackend(primary, inj, "wal/primary")
						if standby {
							b = wal.NewFailoverBackend(b, spare)
						}
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
						st := w.Stats()
						if persistent && !standby {
							if w.Err() == nil {
								t.Fatal("a persistent fault without a standby did not fail-stop")
							}
							if err := w.Close(); err == nil {
								t.Fatal("Close of a fail-stopped writer reported success")
							}
							absorbed := applied[:w.Seq()]
							rec, info, err := wal.Recover(primary, walPartition())
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
						survivor := primary
						switch {
						case persistent:
							if st.Failovers != 1 {
								t.Fatalf("Failovers=%d, want 1", st.Failovers)
							}
							survivor = spare
						case st.Retries < 2:
							t.Fatalf("Retries=%d, want >= 2", st.Retries)
						}
						if err := w.Close(); err != nil {
							t.Fatal(err)
						}
						rec, info, err := wal.Recover(survivor, walPartition())
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
}

// TestFailedFlushKeepsSnapshotStream is the regression test for a
// group flush that fails past the retry bound with no standby. The
// record that closed the group is in the mirror (LoggedSeq counts it,
// Heal writes it), so its bookkeeping — the surviving stream, and for
// a compact record the counter block and the cut cadence — must be
// applied too; otherwise the first snapshot cut after Heal writes a
// stream that disagrees with the log. Each variant fails the flush
// that a different record kind closes: a commit through the group of
// two commits it completes, a compact through the flush its snapshot
// cut begins with, an observe and a retract through an explicit Sync
// (only commits fill a group). The recovered monitor must match the
// live one, and keep matching through one more compaction pass (a
// commit missing from the snapshot shows only there).
func TestFailedFlushKeepsSnapshotStream(t *testing.T) {
	type step struct {
		kind byte // 'o' observe W(txn, item), 'c' commit, 'r' retract, 'k' compact, 'y' sync, 's' cut, 'h' heal
		txn  int
		item string
	}
	o := func(id int, item string) step { return step{kind: 'o', txn: id, item: item} }
	c := func(id int) step { return step{kind: 'c', txn: id} }
	r := func(id int) step { return step{kind: 'r', txn: id} }
	k, y, s, h := step{kind: 'k'}, step{kind: 'y'}, step{kind: 's'}, step{kind: 'h'}
	for _, v := range []struct {
		name string
		from int64 // first failing sync; it fails twice, past MaxRetries 1
		plan []step
	}{
		{"observe", 1, []step{o(1, "x0"), o(2, "x0"), y, h, c(1), k}},
		{"commit", 1, []step{o(2, "x0"), o(1, "x0"), o(3, "x1"), c(3), c(1), h, k, c(2)}},
		{"retract", 1, []step{o(1, "x0"), r(1), y, h, o(2, "x1"), c(2), k}},
		{"compact", 1, []step{o(1, "x0"), c(1), o(2, "x1"), k, h, s}},
	} {
		t.Run(v.name, func(t *testing.T) {
			mem, b, _ := injected(fault.Rule{Op: fault.OpSync, From: v.from, Count: 2, Kind: fault.KindError, Msg: "controller reset"})
			w, err := wal.NewWriter(b, wal.Options{GroupEvery: 2, SnapshotEvery: 1, MaxRetries: 1})
			if err != nil {
				t.Fatal(err)
			}
			m := core.NewMonitor(walPartition())
			m.SetAutoCompact(0)
			m.SetSink(w)
			for _, st := range v.plan {
				switch st.kind {
				case 'o':
					m.Observe(txn.W(st.txn, st.item, 1))
				case 'c':
					m.Commit(st.txn)
				case 'r':
					m.Retract(st.txn)
				case 'k':
					m.Compact()
				case 'y':
					if err := w.Sync(); err == nil {
						t.Fatal("the failing sync reported success")
					}
				case 's':
					if err := w.CutSnapshot(); err != nil {
						t.Fatalf("cut: %v", err)
					}
				case 'h':
					if w.Err() == nil {
						t.Fatal("the failing group flush did not fail-stop")
					}
					if err := w.Heal(); err != nil {
						t.Fatalf("heal: %v", err)
					}
				}
			}
			m.SetSink(nil)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if st := w.Stats(); st.Heals != 1 || st.Snapshots == 0 {
				t.Fatalf("Heals=%d Snapshots=%d, want one heal and a cut after it", st.Heals, st.Snapshots)
			}
			rec, info, err := wal.Recover(mem, walPartition())
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if info.LastSeq != w.Seq() {
				t.Fatalf("LastSeq=%d, want %d", info.LastSeq, w.Seq())
			}
			compareMonitors(t, "recovered", rec, m, 3)
			rec.Compact()
			m.Compact()
			compareMonitors(t, "after one more pass", rec, m, 3)
		})
	}
}

// TestBackoffDoesNotBlockInspection is the regression test for the
// under-lock retry sleep: during a backend outage the feeder sits in
// its bounded backoff (two rounds here, up to 200ms + 400ms), and the
// inspection methods — Err, Stats, Seq, Barrier — must answer from
// the state lock immediately instead of queueing behind the sleeping
// operation for the full retry latency, which is what stalled a
// journaled gate's admission path before the sleep moved off the lock.
func TestBackoffDoesNotBlockInspection(t *testing.T) {
	const backoff = 200 * time.Millisecond
	_, b, inj := injected(fault.Rule{Op: fault.OpSync, From: 1, Count: 2, Kind: fault.KindError, Msg: "injected outage"})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 3, RetryBackoff: backoff})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.LogObserve(txn.R(1, "a", 0))
	}()
	// Wait for the feeder to hit the first injected sync failure and
	// enter its backoff sleep.
	for inj.Fired() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := w.Err(); err != nil {
		t.Errorf("Err during outage: %v", err)
	}
	w.Stats()
	w.Seq()
	if err := w.Barrier(); err != nil {
		t.Errorf("Barrier during outage: %v", err)
	}
	elapsed := time.Since(start)
	<-done
	// The old under-lock sleep made inspection wait out the whole
	// retry latency; off the lock it only ever contends with
	// microsecond-scale critical sections. One backoff unit (the
	// jittered sleep never shrinks below half of it) is a generous
	// threshold that still separates the two regimes.
	if elapsed >= backoff/2 {
		t.Fatalf("inspection blocked %v during backoff; want well under %v", elapsed, backoff/2)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("transient outage went fail-stop: %v", err)
	}
	if st := w.Stats(); st.Retries < 2 {
		t.Fatalf("Retries=%d, want >= 2", st.Retries)
	}
	if got := w.Seq(); got != 1 {
		t.Fatalf("Seq=%d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
