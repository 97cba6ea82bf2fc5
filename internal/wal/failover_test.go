package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/fault"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// failoverPair builds a primary/standby chain where only the primary
// is fault-injected: chain member 0 is mem1 behind "wal/primary"
// injection points, member 1 is a clean mem2.
func failoverPair(rules ...fault.Rule) (mem1, mem2 *wal.MemBackend, fb *wal.FailoverBackend) {
	mem1 = wal.NewMemBackend()
	mem2 = wal.NewMemBackend()
	inj := fault.NewInjector(fault.Plan{Rules: rules})
	fb = wal.NewFailoverBackend(wal.NewInjectBackend(mem1, inj, "wal/primary"), mem2)
	return mem1, mem2, fb
}

// TestFailoverPromotesAndContinues pins the tentpole failover path: a
// primary whose fsync dies for good mid-stream is demoted, the standby
// is promoted and resynced from the active segment's mirror, the
// writer finishes the workload healthy, and recovery from the standby
// alone reproduces the monitor with strict sequence continuity
// (LastSeq equals the applied stream's length — no event was lost or
// renumbered across the switch).
func TestFailoverPromotesAndContinues(t *testing.T) {
	_, mem2, fb := failoverPair(fault.Rule{
		Op: fault.OpSync, From: 5, Count: 0, Kind: fault.KindError, Msg: "primary device gone",
	})
	w, err := wal.NewWriter(fb, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{seed: 31, nTxns: 4, steps: 40, gated: true, commitPct: 10})
	if err := w.Err(); err != nil {
		t.Fatalf("failover did not absorb the primary outage: %v", err)
	}
	if got := fb.Current(); got != 1 {
		t.Fatalf("Current()=%d, want promoted standby 1", got)
	}
	if st := w.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers=%d, want 1", st.Failovers)
	}
	evs := fb.Events()
	if len(evs) != 2 || evs[0].Kind != "demoted" || evs[0].Backend != 0 ||
		evs[1].Kind != "promoted" || evs[1].Backend != 1 {
		t.Fatalf("event stream %+v, want [demoted 0, promoted 1]", evs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving backend is the standby; recovery from it — and from
	// the chain, which delegates to the promoted member — must both
	// reproduce the full stream.
	for name, b := range map[string]wal.Backend{"standby": mem2, "chain": fb} {
		rec, info, err := wal.Recover(b, walPartition())
		if err != nil {
			t.Fatalf("recover from %s: %v", name, err)
		}
		if info.LastSeq != uint64(len(applied)) {
			t.Fatalf("%s: LastSeq=%d, want %d", name, info.LastSeq, len(applied))
		}
		compareMonitors(t, "failover/"+name, rec, m, 4)
	}
}

// TestFailoverCarriesSnapshot runs the same promotion across snapshot
// cuts: the mirror the standby is resynced from begins with the
// surviving snapshot, so the compact-point-cut invariant recovery
// depends on holds on the standby too.
func TestFailoverCarriesSnapshot(t *testing.T) {
	_, mem2, fb := failoverPair(fault.Rule{
		Op: fault.OpWrite, From: 40, Count: 0, Kind: fault.KindError, Msg: "primary device gone",
	})
	w, err := wal.NewWriter(fb, wal.Options{GroupEvery: 1, SnapshotEvery: 1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 37, nTxns: 4, steps: 80, gated: true, commitPct: 15, retractPct: 4, compactEvery: 7,
	})
	if err := w.Err(); err != nil {
		t.Fatalf("failover did not absorb the primary outage: %v", err)
	}
	st := w.Stats()
	if st.Failovers == 0 {
		t.Fatal("workload never hit the injected outage; retune From")
	}
	if st.Snapshots == 0 {
		t.Fatal("workload cut no snapshots; retune the cadence")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem2, walPartition())
	if err != nil {
		t.Fatalf("recover from standby: %v", err)
	}
	if info.LastSeq != uint64(len(applied)) {
		t.Fatalf("LastSeq=%d, want %d", info.LastSeq, len(applied))
	}
	if info.Segment == 0 {
		t.Fatal("standby recovered from a genesis segment; the mirror lost the snapshot head")
	}
	compareMonitors(t, "failover snapshot", rec, m, 4)
}

// TestFailoverChainExhausted pins the end of the line: when the
// standby fails during resync too, the chain is walked to exhaustion
// and the writer latches the ordinary fail-stop, still wrapping the
// injected root cause.
func TestFailoverChainExhausted(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Site: "wal/primary", Op: fault.OpSync, From: 1, Count: 0, Kind: fault.KindError, Msg: "primary gone"},
		{Site: "wal/standby", Op: fault.OpWrite, From: 1, Count: 0, Kind: fault.KindError, Msg: "standby gone"},
	}})
	fb := wal.NewFailoverBackend(
		wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/primary"),
		wal.NewInjectBackend(wal.NewMemBackend(), inj, "wal/standby"),
	)
	w, err := wal.NewWriter(fb, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.LogObserve(txn.W(1, "x0", 1))
	err = w.Err()
	if err == nil {
		t.Fatal("exhausted chain did not fail-stop")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("fail-stop %q does not wrap the injected fault", err)
	}
	if got := fb.Current(); got != 1 {
		t.Fatalf("Current()=%d, want 1 (the last chain member)", got)
	}
	if evs := fb.Events(); len(evs) != 2 {
		t.Fatalf("event stream %+v, want one demotion/promotion pair", evs)
	}
	if st := w.Stats(); st.Failovers != 0 {
		t.Fatalf("Failovers=%d for a chain that never re-established the log", st.Failovers)
	}
}

// TestHealAfterTransientOutage pins Heal on the sync-failure shape:
// the failing event was absorbed into the mirror before its flush, so
// after the outage passes one or two Heal calls rebuild the segment,
// the sequence counter stays put, and the log continues and recovers
// in full.
func TestHealAfterTransientOutage(t *testing.T) {
	mem, b, _ := injected(fault.Rule{Op: fault.OpSync, From: 1, Count: 3, Kind: fault.KindError, Msg: "controller reset"})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.LogObserve(txn.W(1, "x0", 1))
	if w.Err() == nil {
		t.Fatal("outage under MaxRetries=1 should have latched fail-stop")
	}
	if got, want := w.LoggedSeq(), uint64(1); got != want {
		t.Fatalf("LoggedSeq=%d, want %d (the record is in the mirror; only the sync failed)", got, want)
	}
	healed := false
	for i := 0; i < 3 && !healed; i++ {
		healed = w.Heal() == nil
	}
	if !healed {
		t.Fatal("Heal never cleared the fail-stop after the fault window closed")
	}
	if got := w.Seq(); got != 1 {
		t.Fatalf("Seq=%d after heal, want 1 (nothing to roll back)", got)
	}
	if st := w.Stats(); st.Heals != 1 {
		t.Fatalf("Heals=%d, want 1", st.Heals)
	}
	w.LogCommit(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 2 {
		t.Fatalf("LastSeq=%d, want 2", info.LastSeq)
	}
	ref := core.NewMonitor(walPartition())
	ref.SetAutoCompact(0)
	ref.Observe(txn.W(1, "x0", 1))
	ref.Commit(1)
	compareMonitors(t, "heal", rec, ref, 1)
}

// TestHealRefeedLeavesNoGap pins Heal on the write-failure shape: the
// event whose flush failed is in the mirror all the same, so it counts
// in LoggedSeq and Heal writes it. An event emitted while fail-stopped
// is not absorbed — Seq and LoggedSeq stay put — and once Heal clears
// the fail-stop the caller's re-feed continues the log without a gap.
func TestHealRefeedLeavesNoGap(t *testing.T) {
	mem, b, _ := injected(fault.Rule{Op: fault.OpWrite, From: 1, Count: 2, Kind: fault.KindError, Msg: "disk offline"})
	w, err := wal.NewWriter(b, wal.Options{GroupEvery: 1, SnapshotEvery: -1, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.LogObserve(txn.W(1, "x0", 1))
	if w.Err() == nil {
		t.Fatal("write outage under MaxRetries=1 should have latched fail-stop")
	}
	if got := w.LoggedSeq(); got != 1 {
		t.Fatalf("LoggedSeq=%d, want 1 (appending only copies into the mirror)", got)
	}
	w.LogObserve(txn.W(1, "x1", 1)) // emitted while fail-stopped
	if s, l := w.Seq(), w.LoggedSeq(); s != 1 || l != 1 {
		t.Fatalf("Seq=%d LoggedSeq=%d after an emission during fail-stop, want 1 and 1", s, l)
	}
	if err := w.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if got := w.Seq(); got != 1 {
		t.Fatalf("Seq=%d after heal, want 1", got)
	}
	w.LogObserve(txn.W(1, "x1", 1)) // the caller's re-feed
	w.LogCommit(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := wal.Recover(mem, walPartition())
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 3 || info.Torn {
		t.Fatalf("LastSeq=%d torn=%v, want 3 and a clean log", info.LastSeq, info.Torn)
	}
	ref := core.NewMonitor(walPartition())
	ref.SetAutoCompact(0)
	ref.Observe(txn.W(1, "x0", 1))
	ref.Observe(txn.W(1, "x1", 1))
	ref.Commit(1)
	compareMonitors(t, "heal re-feed", rec, ref, 1)
}

// corruptibleLog runs a snapshot-cutting workload with every segment
// retained and returns the backend, the applied stream, and the index
// of the newest snapshot segment.
func corruptibleLog(t *testing.T, retain bool) (*wal.MemBackend, []core.Event, int) {
	t.Helper()
	mem := wal.NewMemBackend()
	w, err := wal.NewWriter(mem, wal.Options{GroupEvery: 1, SnapshotEvery: 1, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMonitor(walPartition())
	applied := runWorkload(t, m, w, workloadCfg{
		seed: 41, nTxns: 4, steps: 70, gated: true, commitPct: 15, retractPct: 4, compactEvery: 6,
	})
	if st := w.Stats(); st.Snapshots < 2 {
		t.Fatalf("Snapshots=%d, want >= 2; retune the workload", st.Snapshots)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	maxIdx := 0
	for _, n := range names {
		var idx int
		if _, err := fmt.Sscanf(n, "%08d.wal", &idx); err == nil && idx > maxIdx {
			maxIdx = idx
		}
	}
	return mem, applied, maxIdx
}

// TestCorruptSnapshotFallsBack pins recovery when the newest snapshot
// segment is damaged — a CRC-flipped byte or a truncation inside the
// snapshot section. With earlier segments retained, recovery must fall
// back to the previous snapshot segment and land on exactly that
// segment's durable prefix (the cut point of the damaged one), never
// on silently wrong state.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	for _, mode := range []string{"crc-flip", "truncated"} {
		t.Run(mode, func(t *testing.T) {
			mem, applied, newest := corruptibleLog(t, true)
			name := fmt.Sprintf("%08d.wal", newest)
			data := mem.Bytes(name)
			if data == nil {
				t.Fatalf("newest segment %s missing", name)
			}
			if mode == "crc-flip" {
				// A byte inside the snapshot section (right after the magic)
				// breaks that frame's CRC.
				data[10] ^= 0xff
				mem.Put(name, data)
			} else {
				mem.Put(name, data[:10])
			}
			rec, info, err := wal.Recover(mem, walPartition())
			if err != nil {
				t.Fatalf("recover with damaged newest snapshot: %v", err)
			}
			if info.Segment >= newest {
				t.Fatalf("recovered from segment %d; want a fallback below %d", info.Segment, newest)
			}
			if info.LastSeq > uint64(len(applied)) {
				t.Fatalf("LastSeq=%d exceeds the applied stream (%d)", info.LastSeq, len(applied))
			}
			ref := newReference(applied)
			compareMonitors(t, mode, rec, ref.at(int(info.LastSeq)), 4)
		})
	}
}

// TestCorruptSnapshotNoFallbackTyped pins the other side: without
// retained history (the damaged snapshot segment is all there is),
// recovery refuses with the typed ErrNoRecoveryBase instead of
// recovering wrong state or panicking.
func TestCorruptSnapshotNoFallbackTyped(t *testing.T) {
	mem, _, newest := corruptibleLog(t, false)
	if newest == 0 {
		t.Fatal("retention left only the genesis segment; retune the workload")
	}
	name := fmt.Sprintf("%08d.wal", newest)
	data := mem.Bytes(name)
	data[10] ^= 0xff
	mem.Put(name, data)
	_, _, err := wal.Recover(mem, walPartition())
	if err == nil {
		t.Fatal("recovery of a corrupt-only log succeeded")
	}
	if !errors.Is(err, wal.ErrNoRecoveryBase) {
		t.Fatalf("error %q is not ErrNoRecoveryBase", err)
	}
	if _, _, _, err := wal.Resume(mem, walPartition(), wal.Options{}); !errors.Is(err, wal.ErrNoRecoveryBase) {
		t.Fatalf("Resume error %q is not ErrNoRecoveryBase", err)
	}
}
