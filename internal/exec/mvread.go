// Multiversion read path: declared read-only transactions served from
// pinned snapshots of the VersionedStore, bypassing the certification
// gate entirely.
//
// The paper's PWSR criterion judges the combined schedule, so the
// bypass carries a proof obligation: inserting the reader's
// operations into the schedule must keep every conjunct's projection
// conflict-serializable. Both engines discharge it the same way — a
// reader observes, atomically, the state produced by a prefix of the
// committed schedule, and its operations are spliced into the
// combined schedule immediately after that prefix:
//
//   - ParallelEngine: commits are serialized and land in ascending-id
//     order; a snapshot is acquired under the commit lock, so its
//     stamp IS a commit prefix and the anchor is the prefix's
//     operation count.
//
//   - RunCtx (the tick engine): writes are applied at grant time and live
//     transactions can still abort, so the engine seals a
//     transaction-closed finished prefix of the recorded schedule —
//     the longest prefix all of whose operations belong to finished
//     transactions whose every operation lies inside it. Finished
//     transactions are durable (never aborted, never expunged; see
//     View.AbortClosure's pinning rule), so the sealed prefix is
//     immutable and its replayed state is committed state. Readers
//     snapshot that.
//
// Why the splice is sound: the reader is read-only, so the only
// conflict edges it touches are write-read edges from the writers in
// its prefix into it — edges pointing at the reader. Ordered directly
// after its prefix, every such edge respects the order; transactions
// outside the prefix contribute no edge into the reader (their writes
// were never observed: the snapshot is frozen) and only edges FROM
// the reader's position forward, which a read-only transaction does
// not generate either (no write-write or read-write edges out of a
// reader that conflicts only on its reads... precisely: an edge
// reader→later-writer exists when the writer overwrites a read item,
// and that edge agrees with the splice order). No cycle can form
// through the reader, per conjunct, so the combined schedule is PWSR
// whenever the writer-only schedule is — the differential suite
// re-checks the combination with the batch checker anyway.
package exec

import (
	"errors"
	"fmt"
	"slices"

	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrReadOnlyWrite reports that a transaction declared read-only
// attempted a write. The declaration is a contract: the bypass's
// soundness argument needs the transaction to contribute no conflict
// edges out of its snapshot point, so the engines reject the program
// up front when its text writes shared items and fail the run if a
// write slips through dynamically.
var ErrReadOnlyWrite = errors.New("exec: declared read-only transaction attempted a write")

// WatermarkReporter is an optional extension of a certifying policy
// or batch gate: it reports the certifier's Compact watermark — the
// highest transaction id physically reclaimed, a retention
// low-watermark under id-ordered commits. An engine whose gate
// reports it anchors the multiversion store's version GC to the mark
// (VersionedStore.SetRetainFloor), so committed versions stay
// acquirable back to the certifier's Compact watermark and are
// reclaimed beyond it by the same low-watermark argument. The sched
// certification gates implement it.
type WatermarkReporter interface {
	// CompactWatermark returns the certifier's highest reclaimed
	// transaction id (0 before any Compact pass reclaimed anything).
	CompactWatermark() int
}

// snapshotAccessor adapts a pinned stamp of a VersionedStore to
// program.Accessor for declared read-only executions: reads are served
// from the frozen view and recorded as schedule operations; writes fail
// with ErrReadOnlyWrite (the engines also reject writing programs before
// running them — this is the dynamic backstop). One accessor serves
// many readers in turn, and ops is their shared arena (see read).
type snapshotAccessor struct {
	store *VersionedStore
	stamp uint64
	id    int
	ops   []txn.Op
}

// read runs declared reader id on m against the snapshot the caller
// pinned at stamp and returns the reader's operations. They are
// appended to a.ops and returned as a range of it, clipped: when the
// arena outgrows its array it moves, and ranges handed out earlier stay
// where they were, unchanged.
func (a *snapshotAccessor) read(m *program.Machine, in *program.Interp, id int, stamp uint64, p *program.Program) ([]txn.Op, error) {
	a.id, a.stamp = id, stamp
	start := len(a.ops)
	err := m.Run(in, p, a)
	return a.ops[start:len(a.ops):len(a.ops)], err
}

// Read implements program.Accessor.
func (a *snapshotAccessor) Read(item string) (state.Value, error) {
	v, ok := a.store.GetAt(item, a.stamp)
	if !ok {
		return state.Value{}, fmt.Errorf("exec: data item %q has no value in snapshot", item)
	}
	a.ops = append(a.ops, txn.Op{Txn: a.id, Action: txn.ActionRead, Entity: item, Value: v, Pos: -1})
	return v, nil
}

// Write implements program.Accessor.
func (a *snapshotAccessor) Write(item string, v state.Value) error {
	return fmt.Errorf("%w: w%d(%s)", ErrReadOnlyWrite, a.id, item)
}

// roResult is one completed read-only transaction: its operation
// sequence and the splice anchor — the operation count of the
// committed prefix its snapshot observed. order breaks ties among
// readers sharing an anchor (their relative begin order; any order is
// sound, since readers do not conflict with each other).
type roResult struct {
	id     int
	anchor int
	order  int
	ops    []txn.Op
}

// spliceRO merges the read-only results into the read-write operation
// sequence, inserting each reader's operations immediately after its
// anchor prefix, and re-stamps positions. The merged sequence is always
// a new array, so the caller may reuse base and the readers' arenas
// (without readers it is a copy of base). ros is sorted in place.
func spliceRO(base []txn.Op, ros []roResult) []txn.Op {
	slices.SortStableFunc(ros, func(a, b roResult) int {
		if a.anchor != b.anchor {
			return a.anchor - b.anchor
		}
		if a.order != b.order {
			return a.order - b.order
		}
		return a.id - b.id
	})
	total := len(base)
	for _, r := range ros {
		total += len(r.ops)
	}
	merged := make([]txn.Op, 0, total)
	next := 0
	for i := 0; i <= len(base); i++ {
		for next < len(ros) && ros[next].anchor == i {
			merged = append(merged, ros[next].ops...)
			next++
		}
		if i < len(base) {
			merged = append(merged, base[i])
		}
	}
	for k := range merged {
		merged[k].Pos = k
	}
	return merged
}

// checkReaders sorts the declared read-only transaction ids in place
// and rejects a declaration that names no program or whose program's
// text writes a shared item. The text was judged once, when the program
// was built (program.ReadOnly), so a check costs a lookup per reader.
func checkReaders(ids []int, programs map[int]*program.Program) error {
	slices.Sort(ids)
	for _, id := range ids {
		p, ok := programs[id]
		if !ok {
			return fmt.Errorf("exec: read-only transaction T%d has no program", id)
		}
		if !p.ReadOnly() {
			return fmt.Errorf("%w: T%d writes %s", ErrReadOnlyWrite, id, p.WriteTargets())
		}
	}
	return nil
}
