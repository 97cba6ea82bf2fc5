package wal_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// walItems is the fixed item universe the wal tests run over.
var walItems = []string{"x0", "x1", "x2", "x3", "x4", "x5"}

// walPartition is a fixed two-conjunct partition over walItems with an
// overlap (x2 constrained by both conjuncts), so violations involve
// projections, not the full schedule.
func walPartition() []state.ItemSet {
	return []state.ItemSet{
		state.NewItemSet("x0", "x1", "x2"),
		state.NewItemSet("x2", "x3", "x4", "x5"),
	}
}

// teeSink records the applied lifecycle stream and forwards it to the
// journal — the recording side is the crash matrix's ground truth:
// event i (1-based, matching the writer's sequence numbers) is
// events[i-1].
type teeSink struct {
	events []core.Event
	next   core.LifecycleSink
}

func (t *teeSink) LogObserve(o txn.Op) {
	t.events = append(t.events, core.Event{Kind: core.EventObserve, Op: o})
	if t.next != nil {
		t.next.LogObserve(o)
	}
}

func (t *teeSink) LogCommit(txnID int) {
	t.events = append(t.events, core.Event{Kind: core.EventCommit, Txn: txnID})
	if t.next != nil {
		t.next.LogCommit(txnID)
	}
}

func (t *teeSink) LogRetract(txnID int) {
	t.events = append(t.events, core.Event{Kind: core.EventRetract, Txn: txnID})
	if t.next != nil {
		t.next.LogRetract(txnID)
	}
}

func (t *teeSink) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	t.events = append(t.events, core.Event{Kind: core.EventCompact})
	if t.next != nil {
		t.next.LogCompact(reclaimed, stats, ops)
	}
}

// applyEvent replays one lifecycle event onto a reference monitor
// through the public mutation API — deliberately not core.Recover, so
// the crash differential compares two independent replay paths.
func applyEvent(m *core.Monitor, ev core.Event) {
	switch ev.Kind {
	case core.EventObserve:
		m.Observe(ev.Op)
	case core.EventCommit:
		m.Commit(ev.Txn)
	case core.EventRetract:
		m.Retract(ev.Txn)
	case core.EventCompact:
		m.Compact()
	}
}

// workloadCfg shapes one logged lifecycle workload.
type workloadCfg struct {
	seed         int64
	nTxns        int
	steps        int  // lifecycle steps to attempt
	gated        bool // only observe Admissible ops (the admission flow)
	ungateAfter  int  // stop gating after this many steps (0 = never)
	runOn        bool // keep observing a few events after a violation
	commitPct    int  // chance in 100 of a commit step
	retractPct   int  // chance in 100 of a retract step
	compactEvery int  // explicit Compact() cadence in steps (0 = never)
}

// runWorkload drives a deterministic random lifecycle workload on a
// monitor whose sink tees into w, and returns the applied stream.
// Compaction runs only through explicit Compact calls (auto-compaction
// off) so the reference replay needs no knowledge of thresholds.
func runWorkload(t *testing.T, m *core.Monitor, w core.LifecycleSink, cfg workloadCfg) []core.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.seed))
	tee := &teeSink{next: w}
	m.SetAutoCompact(0)
	m.SetSink(tee)
	defer m.SetSink(nil)

	// nTxns concurrent slots; a slot's transaction is replaced by a
	// fresh id once it commits (or retracts), so the stream sustains
	// commit/reclaim churn for its whole length instead of draining
	// the id space.
	slot := make([]int, cfg.nTxns)
	for i := range slot {
		slot[i] = i + 1
	}
	nextID := cfg.nTxns + 1
	committed := make(map[int]bool)
	randOp := func(id int) txn.Op {
		entity := walItems[rng.Intn(len(walItems))]
		if rng.Intn(2) == 0 {
			return txn.R(id, entity, int64(rng.Intn(3)))
		}
		return txn.W(id, entity, int64(rng.Intn(3)))
	}
	postViolation := 0
	for step := 0; step < cfg.steps; step++ {
		if !m.PWSR() {
			// The monitor is sticky-violated: retracts would panic and
			// commits are unlogged no-ops, but observes still append to
			// the log — exercise a short post-violation tail.
			if !cfg.runOn || postViolation >= 3 {
				break
			}
			if id := slot[rng.Intn(cfg.nTxns)]; !committed[id] {
				m.Observe(randOp(id))
				postViolation++
			}
			continue
		}
		s := rng.Intn(cfg.nTxns)
		id := slot[s]
		switch r := rng.Intn(100); {
		case r < cfg.commitPct:
			m.Commit(id)
			committed[id] = true
			slot[s] = nextID
			nextID++
		case r < cfg.commitPct+cfg.retractPct:
			m.Retract(id)
			slot[s] = nextID
			nextID++
		default:
			o := randOp(id)
			gated := cfg.gated && (cfg.ungateAfter == 0 || step < cfg.ungateAfter)
			if gated && !m.Admissible(o) {
				break
			}
			m.Observe(o)
		}
		if cfg.compactEvery > 0 && (step+1)%cfg.compactEvery == 0 {
			m.Compact()
		}
	}
	return tee.events
}

// compareMonitors asserts the two monitors are verdict-identical: same
// PWSR verdict and violation witness, same lifecycle counters, same
// live-transaction set, same per-conjunct conflict edges, and the same
// admissibility verdict for every probe in a full battery over the
// item universe.
func compareMonitors(t *testing.T, ctx string, got, want *core.Monitor, nTxns int) {
	t.Helper()
	if got.PWSR() != want.PWSR() {
		t.Fatalf("%s: PWSR=%v, want %v", ctx, got.PWSR(), want.PWSR())
	}
	if !reflect.DeepEqual(got.Violation(), want.Violation()) {
		t.Fatalf("%s: violation %v, want %v", ctx, got.Violation(), want.Violation())
	}
	if got.Ops() != want.Ops() {
		t.Fatalf("%s: Ops=%d, want %d", ctx, got.Ops(), want.Ops())
	}
	if got.LiveTxns() != want.LiveTxns() {
		t.Fatalf("%s: LiveTxns=%d, want %d", ctx, got.LiveTxns(), want.LiveTxns())
	}
	if gs, ws := got.CompactStats(), want.CompactStats(); gs != ws {
		t.Fatalf("%s: CompactStats=%+v, want %+v", ctx, gs, ws)
	}
	if g, w := got.LiveTxnIDs(), want.LiveTxnIDs(); !slices.Equal(g, w) {
		t.Fatalf("%s: LiveTxnIDs=%v, want %v", ctx, g, w)
	}
	for e := 0; e < 2; e++ {
		g, w := got.ConflictEdges(e), want.ConflictEdges(e)
		sortEdges(g)
		sortEdges(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: conjunct %d edges %v, want %v", ctx, e, g, w)
		}
	}
	// Probe battery: every resident transaction plus an unseen one,
	// read and write, over the whole item universe.
	probeIDs := append(want.LiveTxnIDs(), 1, nTxns, 1000003)
	for _, id := range probeIDs {
		for _, item := range walItems {
			for _, o := range []txn.Op{txn.R(id, item, 0), txn.W(id, item, 0)} {
				if g, w := got.Admissible(o), want.Admissible(o); g != w {
					t.Fatalf("%s: Admissible(%v)=%v, want %v", ctx, o, g, w)
				}
			}
		}
	}
}

func sortEdges(edges [][2]int) {
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
}

// referenceAt replays the first n applied events onto a fresh monitor.
func referenceAt(partition []state.ItemSet, applied []core.Event, n int) *core.Monitor {
	m := core.NewMonitor(partition)
	m.SetAutoCompact(0)
	for _, ev := range applied[:n] {
		applyEvent(m, ev)
	}
	return m
}

// TestWriterRoundTrip writes a lifecycle stream through a Writer and
// recovers it: the rebuilt monitor must be verdict-identical to the
// live one, and Info must account for every event.
func TestWriterRoundTrip(t *testing.T) {
	for _, opts := range []wal.Options{
		{GroupEvery: 1, SnapshotEvery: -1},              // sync every record, never snapshot
		{GroupEvery: 8, SnapshotEvery: 1},               // group commit + snapshot every pass
		{GroupEvery: 4, SnapshotEvery: 2, Retain: true}, // retained history
	} {
		t.Run(fmt.Sprintf("g%d_s%d", opts.GroupEvery, opts.SnapshotEvery), func(t *testing.T) {
			b := wal.NewMemBackend()
			w, err := wal.NewWriter(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			partition := walPartition()
			m := core.NewMonitor(partition)
			applied := runWorkload(t, m, w, workloadCfg{
				seed: 11, nTxns: 5, steps: 160, gated: true, commitPct: 12, retractPct: 6, compactEvery: 13,
			})
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			rec, info, err := wal.Recover(b, partition)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if info.Torn {
				t.Fatalf("clean log reported torn: %v", info.TailErr)
			}
			if info.LastSeq != uint64(len(applied)) {
				t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
			}
			compareMonitors(t, "round trip", rec, m, 5)
			st := w.Stats()
			if st.Records != int64(len(applied)) {
				t.Fatalf("Records=%d, want %d", st.Records, len(applied))
			}
			if st.Fsyncs == 0 || st.LogBytes == 0 {
				t.Fatalf("stats not accounted: %+v", st)
			}
		})
	}
}

// TestGroupCommitFsyncs pins the group-commit amortization: with a
// window of n the writer must issue roughly Commits/n fsyncs, not one
// per record or per commit. The stream is long enough to fill groups.
func TestGroupCommitFsyncs(t *testing.T) {
	b := wal.NewMemBackend()
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 16, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{seed: 3, nTxns: 4, steps: 640, gated: true, commitPct: 10})
	commits := int64(0)
	for _, ev := range applied {
		if ev.Kind == core.EventCommit {
			commits++
		}
	}
	st := w.Stats()
	maxFsyncs := commits/16 + 2
	if st.Fsyncs == 0 || st.Fsyncs > maxFsyncs {
		t.Fatalf("GroupEvery=16 issued %d fsyncs for %d records, %d commits (want 1..%d)", st.Fsyncs, len(applied), commits, maxFsyncs)
	}
	w.Close()
}

// TestSyncNothingPendingIsNoop pins Sync's no-op: with nothing appended
// since the last successful sync — a second Sync right after one, or a
// Sync right after a snapshot cut — it issues no backend write and no
// fsync.
func TestSyncNothingPendingIsNoop(t *testing.T) {
	cb := &writeCounter{Backend: wal.NewMemBackend()}
	w, err := wal.NewWriter(cb, wal.Options{GroupEvery: 16, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	syncWants := func(what string, fsyncs, writes int64) {
		t.Helper()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Fsyncs; got != fsyncs || cb.writes != writes {
			t.Fatalf("%s: %d fsync(s) and %d write(s) so far, want %d and %d", what, got, cb.writes, fsyncs, writes)
		}
	}
	w.LogObserve(txn.W(1, "x0", 1))
	w.LogCommit(1)
	syncWants("Sync of one pending commit", 1, 1)
	syncWants("a second Sync", 1, 1)
	w.LogCompact([]int{1}, core.CompactStats{Compactions: 1, ReclaimedTxns: 1, ReclaimedOps: 1}, 0)
	st := w.Stats()
	if st.Snapshots != 1 {
		t.Fatal("the compaction pass cut no snapshot")
	}
	syncWants("Sync after a snapshot cut", st.Fsyncs, cb.writes)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeContinues recovers a log with Resume, feeds identical new
// traffic to the recovered monitor and the original, and requires the
// continued log to recover to the same final state — sequence
// numbering, snapshot baseline, and counters all survive the restart.
func TestResumeContinues(t *testing.T) {
	partition := walPartition()
	b := wal.NewMemBackend()
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := core.NewMonitor(partition)
	runWorkload(t, orig, w, workloadCfg{
		seed: 29, nTxns: 5, steps: 90, gated: true, commitPct: 14, retractPct: 5, compactEvery: 11,
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, w2, info, err := wal.Resume(b, partition, wal.Options{GroupEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if w2.Stats().RecoveryReplays != int64(info.SnapshotEvents+info.Replayed) {
		t.Fatalf("RecoveryReplays=%d, want %d", w2.Stats().RecoveryReplays, info.SnapshotEvents+info.Replayed)
	}
	// Resume runs one compaction pass before cutting its baseline;
	// mirror it on the original so the lineages stay comparable.
	orig.SetSink(nil)
	orig.Compact()
	compareMonitors(t, "after resume", rec, orig, 5)

	// Phase 2: identical traffic into both monitors; only rec logs.
	rec.SetAutoCompact(0)
	orig.SetAutoCompact(0)
	rec.SetSink(w2)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 60 && orig.PWSR(); step++ {
		id := 1 + rng.Intn(5)
		o := txn.W(id, walItems[rng.Intn(len(walItems))], 1)
		if rng.Intn(2) == 0 {
			o = txn.R(id, o.Entity, 1)
		}
		orig.Observe(o)
		rec.Observe(o)
		if step%17 == 16 {
			orig.Compact()
			rec.Compact()
		}
	}
	rec.SetSink(nil)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	final, info2, err := wal.Recover(b, partition)
	if err != nil {
		t.Fatalf("recover after resume: %v", err)
	}
	if info2.LastSeq < info.LastSeq {
		t.Fatalf("sequence went backwards across resume: %d < %d", info2.LastSeq, info.LastSeq)
	}
	compareMonitors(t, "after continued traffic", final, orig, 5)
}

// TestNewWriterRefusesExistingLog pins the NewWriter/Resume split: a
// backend already holding segments must be resumed, not overwritten.
func TestNewWriterRefusesExistingLog(t *testing.T) {
	b := wal.NewMemBackend()
	w, err := wal.NewWriter(b, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := wal.NewWriter(b, wal.Options{}); err == nil {
		t.Fatal("NewWriter accepted a backend with existing segments")
	}
}

// TestForeignFileUntouched pins segIndexOf's strict-name validation:
// a foreign file whose name merely ends in .wal (here
// "00000001.wal.wal", which passes List's suffix filter and which a
// bare Sscanf would parse as segment 1) must be neither scanned by
// recovery nor deleted by the retention sweep.
func TestForeignFileUntouched(t *testing.T) {
	partition := walPartition()
	b := wal.NewMemBackend()
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	foreign := []byte("not a wal segment")
	b.Put("00000001.wal.wal", foreign)
	m := core.NewMonitor(partition)
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 7, nTxns: 4, steps: 80, gated: true, commitPct: 15, retractPct: 5, compactEvery: 7,
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Snapshots == 0 {
		t.Fatal("workload cut no snapshots; retention sweep never ran")
	}
	if got := b.Bytes("00000001.wal.wal"); !reflect.DeepEqual(got, foreign) {
		t.Fatalf("retention sweep disturbed the foreign file: %q", got)
	}
	rec, info, err := wal.Recover(b, partition)
	if err != nil {
		t.Fatalf("recover with foreign file present: %v", err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "foreign file", rec, m, 5)
}

// TestFileBackendRoundTrip runs the round trip through real files —
// the FileBackend path the production configuration uses.
func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := wal.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 4, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	partition := walPartition()
	m := core.NewMonitor(partition)
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 53, nTxns: 5, steps: 120, gated: true, commitPct: 12, retractPct: 4, compactEvery: 9,
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(b, partition)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	compareMonitors(t, "file backend", rec, m, 5)
}
