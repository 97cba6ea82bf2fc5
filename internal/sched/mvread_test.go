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
// probed — the fixture for the single-probe health contract. The rest
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
func (j *scriptedJournal) Heal() error                                            { return nil }
func (j *scriptedJournal) LoggedSeq() uint64                                      { return 0 }
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

// TestHealthProbesBarrierOnce pins the bugfix in journaled.health():
// the mode decision and the reported error must come from one Barrier
// observation. The scripted journal fails on the first probe and heals
// on the second — double-probing would have classified the gate as
// buffering while reporting a nil journal error.
func TestHealthProbesBarrierOnce(t *testing.T) {
	jerr := errors.New("transient device error")
	j := &scriptedJournal{errs: []error{jerr, nil}}
	partition := []state.ItemSet{state.NewItemSet("x")}
	gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	gate.AttachJournal(j, sched.WithDegradeMode(sched.DegradeBuffer))

	h := gate.Health()
	if j.calls != 1 {
		t.Fatalf("Health probed the barrier %d times, want exactly 1", j.calls)
	}
	if h.Mode != exec.ModeBuffering {
		t.Fatalf("Mode = %v, want buffering (the probe's error decided the mode)", h.Mode)
	}
	if !errors.Is(h.JournalErr, jerr) {
		t.Fatalf("JournalErr = %v, want the same observation's error %v", h.JournalErr, jerr)
	}

	// The second snapshot sees the healed barrier: consistent again.
	h = gate.Health()
	if j.calls != 2 {
		t.Fatalf("second Health probed %d times total, want 2", j.calls)
	}
	if h.Mode != exec.ModeOK || h.JournalErr != nil {
		t.Fatalf("healed Health = %v/%v, want ok with nil error", h.Mode, h.JournalErr)
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
