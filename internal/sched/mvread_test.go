package sched_test

import (
	"errors"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// scriptedJournal is a journal whose Barrier returns a scripted
// sequence of results (the last repeats) and counts how often it was
// probed — the fixture for the latch-only health contract. The rest
// of sched.Journal does nothing.
type scriptedJournal struct {
	calls int
	errs  []error
}

func (j *scriptedJournal) LogObserve(o txn.Op)                                    {}
func (j *scriptedJournal) LogCommit(txnID int)                                    {}
func (j *scriptedJournal) LogRetract(txnID int)                                   {}
func (j *scriptedJournal) LogCompact(reclaimed []int, s core.CompactStats, n int) {}
func (j *scriptedJournal) Sync() error                                            { return nil }
func (j *scriptedJournal) CutSnapshot() error                                     { return nil }
func (j *scriptedJournal) Stats() wal.Stats                                       { return wal.Stats{} }
func (j *scriptedJournal) Close() error                                           { return nil }
func (j *scriptedJournal) Barrier() error {
	i := j.calls
	j.calls++
	if i >= len(j.errs) {
		i = len(j.errs) - 1
	}
	return j.errs[i]
}

// TestHealthReadsLatchesOnly pins journaled.health(): Health reads the
// gate's latch and never probes the journal. Over a journal whose
// Barrier fails, the gate reports no journal error until an ack
// refuses, and that ack's error after; only the ack probes. The
// journal is the monitor's sink itself, with no gate hop between.
func TestHealthReadsLatchesOnly(t *testing.T) {
	jerr := errors.New("transient device error")
	j := &scriptedJournal{errs: []error{jerr}}
	mon := core.NewMonitor([]state.ItemSet{state.NewItemSet("x")})
	gate := sched.NewOptimisticCertifyOver(mon, &sched.Serial{}, nil)
	gate.AttachJournal(j)
	if mon.Sink() != core.LifecycleSink(j) {
		t.Fatalf("monitor sink = %T, want the journal itself", mon.Sink())
	}

	if h := gate.Health(); j.calls != 0 || h.JournalErr != nil {
		t.Fatalf("Health before any ack = %v after %d Barrier calls, want nil after 0", h.JournalErr, j.calls)
	}
	if err := gate.AdmitTxn([]txn.Op{txn.W(1, "x", 1)}); !errors.Is(err, exec.ErrJournalDown) {
		t.Fatalf("AdmitTxn over a failing barrier = %v, want ErrJournalDown", err)
	}
	h := gate.Health()
	if j.calls != 1 {
		t.Fatalf("%d Barrier calls, want exactly the ack's 1", j.calls)
	}
	if !errors.Is(h.JournalErr, jerr) {
		t.Fatalf("Health after the refused ack = %+v, want fail-stop with %v", h, jerr)
	}
}

// TestGatesReportCompactWatermark drives an id-ordered batch commit
// stream through the certification gate and checks exec.Gate's
// CompactWatermark: with compaction on every commit the reported
// watermark must reach the last reclaimed transaction — the retention
// anchor the multiversion read path's version GC follows.
func TestGatesReportCompactWatermark(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("x")}
	g := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	g.Monitor().SetAutoCompact(1)
	if wm := g.CompactWatermark(); wm != 0 {
		t.Fatalf("fresh watermark = %d, want 0", wm)
	}
	last := 0
	for id := 1; id <= 6; id++ {
		ops := []txn.Op{
			{Txn: id, Action: txn.ActionRead, Entity: "x", Value: state.Int(int64(id - 1)), Pos: 0},
			{Txn: id, Action: txn.ActionWrite, Entity: "x", Value: state.Int(int64(id)), Pos: 1},
		}
		if err := g.AdmitTxn(ops); err != nil {
			t.Fatalf("AdmitTxn(T%d): %v", id, err)
		}
		wm := g.CompactWatermark()
		if wm < last {
			t.Fatalf("watermark moved backwards: %d after %d", wm, last)
		}
		if wm > id {
			t.Fatalf("watermark %d beyond the committed prefix %d", wm, id)
		}
		last = wm
	}
	if last != 6 {
		t.Fatalf("final watermark = %d, want 6 (everything committed and compacted)", last)
	}
}
