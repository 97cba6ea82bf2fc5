package wal

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrNoRecoveryBase is the typed failure of a log whose segments
// offer nothing to recover from: no segment carries a complete
// snapshot section and the genesis segment is gone (or itself lacks a
// readable header). Callers distinguish it from I/O errors with
// errors.Is — it means the log's history is lost, not that the
// backend is misbehaving — and must refuse to admit rather than start
// from silently empty state.
var ErrNoRecoveryBase = errors.New("wal: no recovery base")

// Info reports what recovery found and replayed.
type Info struct {
	// Segment is the index of the base segment recovery replayed (the
	// newest one with a complete snapshot section, or the genesis
	// segment).
	Segment int
	// SnapshotEvents is the number of surviving-stream events replayed
	// from the base segment's snapshot section.
	SnapshotEvents int
	// Replayed is the number of suffix records replayed on top.
	Replayed int
	// CutSeq is the base snapshot's cut sequence number (0 when
	// recovery started from the genesis segment).
	CutSeq uint64
	// LastSeq is the sequence number of the last applied lifecycle
	// event: the recovered state is exactly the uninterrupted
	// monitor's state after event LastSeq.
	LastSeq uint64
	// Torn reports that the scan ended at a torn or corrupt frame
	// rather than a clean end of segment.
	Torn bool
	// TailErr is the decode error that ended the scan (nil for a
	// clean end). A torn tail is expected after a crash and is not a
	// recovery failure.
	TailErr error
}

// segScan is one scanned segment.
type segScan struct {
	idx      int
	hasSnap  bool // a snapshot section begins the segment
	snapOK   bool // … and it is complete
	cutSeq   uint64
	snap     *core.Snapshot
	snapSeqs []uint64 // original seqs of the snapshot events
	suffix   []*record
	torn     bool
	tailErr  error
}

// readSegment reads and scans one segment.
func readSegment(b Backend, name string, idx int) (*segScan, error) {
	r, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return nil, err
	}
	s := &segScan{idx: idx}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		s.torn = true
		s.tailErr = &corruptError{off: 0, reason: "bad or truncated segment header"}
		return s, nil
	}
	d := &decoder{buf: data, off: len(segMagic)}
	rec, err := d.next()
	if err != nil {
		s.torn, s.tailErr = true, err
		return s, nil
	}
	if rec != nil && rec.kind == recSnapBegin {
		s.hasSnap = true
		s.cutSeq = rec.seq
		snap := &core.Snapshot{
			Ops:           rec.snap.ops,
			Compactions:   rec.snap.compactions,
			ReclaimedTxns: rec.snap.reclaimedTxns,
			ReclaimedOps:  rec.snap.reclaimedOps,
		}
		for i := 0; i < rec.snap.eventCount; i++ {
			ev, err := d.next()
			if err != nil || ev == nil {
				s.torn, s.tailErr = true, err
				return s, nil // incomplete snapshot: segment unusable as base
			}
			if ev.kind != recRead && ev.kind != recWrite && ev.kind != recCommit {
				s.torn = true
				s.tailErr = &corruptError{off: d.off, reason: fmt.Sprintf("record kind %d inside snapshot section", ev.kind)}
				return s, nil
			}
			snap.Events = append(snap.Events, ev.ev)
			s.snapSeqs = append(s.snapSeqs, ev.seq)
		}
		end, err := d.next()
		if err != nil || end == nil || end.kind != recSnapEnd || end.seq != s.cutSeq {
			s.torn = true
			if err != nil {
				s.tailErr = err
			} else {
				s.tailErr = &corruptError{off: d.off, reason: "missing or mismatched snapshot-end"}
			}
			return s, nil
		}
		s.snap = snap
		s.snapOK = true
		rec, err = d.next()
		if err != nil {
			s.torn, s.tailErr = true, err
			return s, nil
		}
	}
	// Suffix records: lifecycle events with strictly consecutive
	// sequence numbers. The expected seq of the first suffix record is
	// established by the snapshot cut (or 1 for a genesis segment); a
	// discontinuity means frames were lost or spliced, so the durable
	// prefix ends at the last consistent record.
	expect := s.cutSeq + 1
	for rec != nil {
		if rec.kind == recSnapBegin || rec.kind == recSnapEnd {
			s.torn = true
			s.tailErr = &corruptError{off: d.off, reason: "snapshot record outside the snapshot section"}
			return s, nil
		}
		if rec.seq != expect {
			s.torn = true
			s.tailErr = &corruptError{off: d.off, reason: fmt.Sprintf("sequence discontinuity: record %d, expected %d", rec.seq, expect)}
			return s, nil
		}
		s.suffix = append(s.suffix, rec)
		expect++
		var err error
		rec, err = d.next()
		if err != nil {
			s.torn, s.tailErr = true, err
			return s, nil
		}
	}
	return s, nil
}

// scanBackend scans every segment and selects the recovery base: the
// newest segment with a complete snapshot, or the genesis segment.
// maxIdx is the highest segment index present (torn segments
// included), so a resuming writer can pick a fresh index above
// everything on disk.
func scanBackend(b Backend) (base *segScan, maxIdx int, err error) {
	names, err := b.List()
	if err != nil {
		return nil, -1, fmt.Errorf("wal: list segments: %w", err)
	}
	type seg struct {
		name string
		idx  int
	}
	var segs []seg
	maxIdx = -1
	for _, name := range names {
		idx, ok := segIndexOf(name)
		if !ok {
			continue // foreign file; not ours to interpret
		}
		segs = append(segs, seg{name: name, idx: idx})
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if len(segs) == 0 {
		return nil, -1, fmt.Errorf("wal: no segments found")
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx > segs[j].idx })
	var genesis *segScan
	for _, sg := range segs {
		s, err := readSegment(b, sg.name, sg.idx)
		if err != nil {
			return nil, -1, fmt.Errorf("wal: read segment %s: %w", sg.name, err)
		}
		if s.snapOK {
			return s, maxIdx, nil // newest complete snapshot wins
		}
		if sg.idx == 0 && !s.hasSnap {
			genesis = s // usable fallback: the log's full history
		}
	}
	if genesis != nil {
		return genesis, maxIdx, nil
	}
	return nil, -1, fmt.Errorf("%w: no segment with a complete snapshot and no genesis segment", ErrNoRecoveryBase)
}

// reclaimTap is the replay sink recovery attaches to cross-check the
// log's recorded reclamation sets against the deterministic replay.
type reclaimTap struct {
	compacts [][]int
}

func (t *reclaimTap) LogObserve(o txn.Op)  {}
func (t *reclaimTap) LogCommit(txnID int)  {}
func (t *reclaimTap) LogRetract(txnID int) {}
func (t *reclaimTap) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	cp := slices.Clone(reclaimed)
	slices.Sort(cp)
	t.compacts = append(t.compacts, cp)
}

// Recover rebuilds a monitor from whatever durable prefix of the log
// survives on the backend: the newest complete snapshot is replayed,
// then the suffix records up to the first torn or corrupt frame, and
// the result is verdict-identical to the monitor that wrote that
// prefix (core.Recover's contract; TestCrashMatrix kills the log at
// every byte offset and asserts it). A torn tail is not an error —
// it is the expected shape of a crash — but a structurally corrupt
// stream (a lifecycle event the contract rejects, or a compact record
// whose recorded reclamation set disagrees with the deterministic
// replay) aborts recovery rather than admitting on bad state.
func Recover(b Backend, partition []state.ItemSet) (*core.Monitor, *Info, error) {
	m, _, _, info, err := recoverState(b, partition)
	return m, info, err
}

// recoverState is the shared recovery core: it also returns the
// surviving lifecycle stream (with original sequence numbers) and the
// highest segment index on the backend so Resume can seed a
// continuing writer.
func recoverState(b Backend, partition []state.ItemSet) (*core.Monitor, []liveEvent, int, *Info, error) {
	base, maxIdx, err := scanBackend(b)
	if err != nil {
		return nil, nil, -1, nil, err
	}
	info := &Info{
		Segment: base.idx,
		CutSeq:  base.cutSeq,
		LastSeq: base.cutSeq,
		Torn:    base.torn,
		TailErr: base.tailErr,
	}
	// Rebuild the surviving stream the way the writer maintains it:
	// seed with the snapshot's events, then apply each suffix record.
	var live []liveEvent
	var snap *core.Snapshot
	if base.snapOK {
		snap = base.snap
		info.SnapshotEvents = len(snap.Events)
		for i, ev := range snap.Events {
			live = append(live, liveEvent{seq: base.snapSeqs[i], ev: ev})
		}
	}
	suffix := make([]core.Event, 0, len(base.suffix))
	var recorded [][]int // recorded reclamation sets, in stream order
	for _, rec := range base.suffix {
		suffix = append(suffix, rec.ev)
		switch rec.ev.Kind {
		case core.EventObserve, core.EventCommit:
			live = append(live, liveEvent{seq: rec.seq, ev: rec.ev})
		case core.EventRetract:
			live = dropTxns(live, []int{rec.ev.Txn})
		case core.EventCompact:
			cp := slices.Clone(rec.reclaimed)
			slices.Sort(cp)
			recorded = append(recorded, cp)
			live = dropTxns(live, cp)
		}
		info.LastSeq = rec.seq
	}
	info.Replayed = len(suffix)
	tap := &reclaimTap{}
	m, err := core.Recover(partition, snap, suffix, tap)
	if err != nil {
		return nil, nil, -1, info, fmt.Errorf("wal: replay: %w", err)
	}
	// Cross-check: each compact record's recorded reclamation set must
	// match what the deterministic replay actually reclaimed. A
	// mismatch means the log's history is not the history that
	// produced it — corrupt or spliced — and must not be admitted.
	if len(tap.compacts) != len(recorded) {
		return nil, nil, -1, info, fmt.Errorf("wal: replay ran %d compaction passes, log recorded %d", len(tap.compacts), len(recorded))
	}
	for i := range recorded {
		if !slices.Equal(recorded[i], tap.compacts[i]) {
			return nil, nil, -1, info, fmt.Errorf("wal: compact record %d reclaimed %v, replay reclaimed %v", i, recorded[i], tap.compacts[i])
		}
	}
	return m, live, maxIdx, info, nil
}

// Resume recovers the log and returns both the rebuilt monitor and a
// Writer positioned to continue it: the writer immediately cuts a
// baseline snapshot into a fresh segment (above every index on the
// backend, torn leftovers included), so the recovered state is
// durable in one self-contained segment before any new event is
// logged, and the sequence numbering continues where the durable
// prefix ended. Attach the returned writer with SetSink (or
// sched.AttachJournal) before feeding new traffic.
//
// Resume runs one compaction pass on the recovered monitor before the
// cut. Every snapshot the system writes is thereby a compact-point
// cut — the shape core.Recover's replay normalization is sound for: a
// surviving stream captured right after a pass replays (plus one
// normalizing pass) to exactly the state that was cut. Skipping the
// pass would bake an arbitrary mid-stream state into the baseline,
// and a later recovery would reclaim transactions this monitor still
// holds. The pass is ordinary (it counts in CompactStats and may
// reclaim committed transactions); on a violated monitor it is the
// usual no-op.
func Resume(b Backend, partition []state.ItemSet, opts Options) (*core.Monitor, *Writer, *Info, error) {
	m, live, maxIdx, info, err := recoverState(b, partition)
	if err != nil {
		return nil, nil, info, err
	}
	tap := &reclaimTap{}
	prev := m.SetSink(tap)
	m.Compact()
	m.SetSink(prev)
	for _, reclaimed := range tap.compacts {
		live = dropTxns(live, reclaimed)
	}
	st := m.CompactStats()
	w := &Writer{
		b:        b,
		opts:     opts,
		segIndex: maxIdx,
		seq:      info.LastSeq,
		live:     live,
		counters: snapHeader{
			ops:           m.Ops(),
			compactions:   st.Compactions,
			reclaimedTxns: st.ReclaimedTxns,
			reclaimedOps:  st.ReclaimedOps,
		},
	}
	w.stats.RecoveryReplays = int64(info.SnapshotEvents + info.Replayed)
	w.mu.Lock()
	w.cutLocked()
	err = w.err
	w.mu.Unlock()
	if err != nil {
		return nil, nil, info, fmt.Errorf("wal: resume baseline snapshot: %w", err)
	}
	if w.seg == nil {
		return nil, nil, info, fmt.Errorf("wal: resume baseline snapshot failed")
	}
	return m, w, info, nil
}
