package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/wal"
)

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
