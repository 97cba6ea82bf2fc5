package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ErrSnapshotRetired is returned by AcquireAt for a stamp below the
// store's retention floor: the versions that anchor needs may already
// have been garbage-collected. Snapshots at or above the floor are
// never denied — that is the multiversion read path's contract.
var ErrSnapshotRetired = errors.New("exec: snapshot stamp below the retention floor")

// VersionedStore is the shared multiversion database of the execution
// engines: a state.DB whose items each carry a chain of committed
// versions, one appended per committing transaction's write. It plays
// two roles:
//
//   - For the block-parallel batch executor (ParallelEngine) it is the
//     optimistic-concurrency substrate of PR 7: speculative executions
//     read the newest values with their stamps under a read lock, and
//     the serialized commit step revalidates the stamps it read against
//     the current ones (validate) before applying the write set
//     (commit).
//
//   - For the declared read-only transaction class it is the snapshot
//     source: Acquire pins the newest committed stamp and serves a
//     consistent frozen view from the version chains, so a reader never
//     conflicts with, is denied by, or aborts because of concurrent
//     writers — reads bypass the certification gate entirely, and the
//     combined schedule stays PWSR because the snapshot is exactly the
//     state of a committed prefix (see the mvread.go package notes).
//
// Version retention follows the certifier's own low-watermark
// argument. The store keeps, for every item, the versions visible to
// (a) every currently pinned snapshot and (b) every stamp at or above
// the retention floor. By default the floor tracks the newest stamp
// (each commit supersedes unpinned history, preserving PR 7's
// single-version memory profile). An engine wired to a certifying
// gate instead advances the floor to the stamp of the last commit at
// or below the certifier's Compact watermark (SetRetainFloor): just
// as the monitor retains a committed transaction until no future
// conflict cycle can reach it, the store retains a committed version
// until no snapshot — current or future — can observe it, and the two
// watermarks advance together.
//
// Nothing a commit, a floor move or the accounting does visits the
// whole store: a commit touches the chains it writes, a floor move the
// chains written since the one before (the history list), and
// VersionStats reads counters. Only Snapshot and SnapshotAt, which copy
// the store out, are proportional to it.
type VersionedStore struct {
	mu    sync.RWMutex
	items map[string]*chain
	// stamp is the monotone version source: each committing
	// transaction's writes share one fresh stamp, so a stamp identifies
	// the commit that produced the value.
	stamp uint64
	// floor is the oldest stamp a new snapshot may anchor at. With
	// autoFloor (the default) it follows stamp; SetRetainFloor switches
	// to manual advancement.
	floor     uint64
	autoFloor bool
	// pins refcounts the stamps of live snapshots; pinned stamps stay
	// readable below the floor until released.
	pins map[uint64]int
	// history lists the chains a prune may shorten: every chain holding
	// more than one version is on it (some listed chains may be back to
	// one).
	history []*chain
	// versions, npins and pruned count retained versions, live snapshots
	// and versions garbage-collected so far.
	versions, npins int
	pruned          uint64
}

// versionedItem is one committed version of an item: the value and the
// stamp of the commit that wrote it (0 = initial state).
type versionedItem struct {
	val state.Value
	ver uint64
}

// chain is one item's retained versions, ascending by stamp, never
// empty; listed records that it is on the store's history list.
type chain struct {
	versions []versionedItem
	listed   bool
}

func (c *chain) newest() versionedItem { return c.versions[len(c.versions)-1] }

// NewVersionedStore returns a store initialized from ds (copied; the
// caller's DB is not retained). Initial values carry version 0.
func NewVersionedStore(ds state.DB) *VersionedStore {
	items := make(map[string]*chain, len(ds))
	chains := make([]chain, len(ds))
	initial := make([]versionedItem, len(ds))
	i := 0
	for k, v := range ds {
		initial[i].val = v
		chains[i].versions = initial[i : i+1 : i+1]
		items[k] = &chains[i]
		i++
	}
	return &VersionedStore{items: items, autoFloor: true, pins: make(map[uint64]int), versions: len(ds)}
}

// Get returns the item's newest value and version stamp. The element
// is copied before the lock is released: prune compacts chains in
// place, so the backing array may be rewritten by a concurrent commit
// the moment the lock drops.
func (s *VersionedStore) Get(item string) (state.Value, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.items[item]
	if c == nil {
		return state.Value{}, 0, false
	}
	it := c.newest()
	return it.val, it.ver, true
}

// GetAt returns the item's value as of the given stamp: the newest
// version whose stamp is ≤ stamp. ok is false when the item did not
// exist at that stamp (created by a later commit) or when the anchor
// predates the retained history (stamp below the floor and not
// pinned — use a pinned snapshot for stable reads).
func (s *VersionedStore) GetAt(item string, stamp uint64) (state.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getAtLocked(item, stamp)
}

func (s *VersionedStore) getAtLocked(item string, stamp uint64) (state.Value, bool) {
	c := s.items[item]
	if c == nil {
		return state.Value{}, false
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].ver <= stamp {
			return c.versions[i].val, true
		}
	}
	return state.Value{}, false
}

// Snapshot returns a state.DB copy of the current (newest) values.
func (s *VersionedStore) Snapshot() state.DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := make(state.DB, len(s.items))
	for k, c := range s.items {
		db[k] = c.newest().val
	}
	return db
}

// SnapshotAt returns a state.DB copy of the values as of the given
// stamp. Items created after the stamp are absent. The caller is
// responsible for the stamp still being retained (pinned or ≥ floor).
func (s *VersionedStore) SnapshotAt(stamp uint64) state.DB {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := make(state.DB, len(s.items))
	for k := range s.items {
		if v, ok := s.getAtLocked(k, stamp); ok {
			db[k] = v
		}
	}
	return db
}

// Stamp returns the newest committed stamp.
func (s *VersionedStore) Stamp() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stamp
}

// Floor returns the retention floor: the oldest stamp AcquireAt still
// serves.
func (s *VersionedStore) Floor() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.floor
}

// validate reports whether every read among ops still sees the newest
// version — vers[k] is the stamp the read ops[k] saw — so no
// conflicting commit has overwritten an item this execution read.
func (s *VersionedStore) validate(ops []txn.Op, vers []uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, o := range ops {
		if o.Action != txn.ActionRead {
			continue
		}
		if c := s.items[o.Entity]; c == nil || c.newest().ver != vers[k] {
			return false
		}
	}
	return true
}

// commit applies the writes among ops, in order, under a single fresh
// stamp: one new version per item written, holding the item's last
// write. Only an engine's serialized commit step calls it, so stamps are
// assigned in commit order and the store's history is exactly the serial
// history of the committed prefix. Superseded versions of the written
// items that no pinned snapshot and no stamp at or above the floor can
// observe are pruned in the same step (release/SetRetainFloor prune the
// rest lazily on the next write or floor move — garbage is bounded by
// the write traffic since the floor).
func (s *VersionedStore) commit(ops []txn.Op) {
	if !slices.ContainsFunc(ops, func(o txn.Op) bool { return o.Action == txn.ActionWrite }) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stamp++
	if s.autoFloor {
		s.floor = s.stamp
	}
	keep := s.keepFromLocked()
	for _, o := range ops {
		if o.Action != txn.ActionWrite {
			continue
		}
		c := s.items[o.Entity]
		switch {
		case c == nil:
			c = &chain{}
			s.items[o.Entity] = c
		case c.newest().ver == s.stamp:
			c.versions[len(c.versions)-1].val = o.Value
			continue
		}
		c.versions = append(c.versions, versionedItem{val: o.Value, ver: s.stamp})
		s.versions++
		s.prune(c, keep)
	}
}

// keepFromLocked computes the oldest anchor any reader can still use:
// the minimum of the retention floor and every pinned snapshot stamp.
func (s *VersionedStore) keepFromLocked() uint64 {
	keep := s.floor
	for st := range s.pins {
		if st < keep {
			keep = st
		}
	}
	return keep
}

// prune drops the prefix of c no anchor ≥ keep can observe: version i
// is garbage exactly when version i+1 exists and has ver ≤ keep (every
// surviving anchor already sees i+1 or newer). A chain left holding
// more than one version goes on the history list.
func (s *VersionedStore) prune(c *chain, keep uint64) {
	drop := 0
	for drop < len(c.versions)-1 && c.versions[drop+1].ver <= keep {
		drop++
	}
	if drop > 0 {
		s.pruned += uint64(drop)
		s.versions -= drop
		c.versions = append(c.versions[:0], c.versions[drop:]...)
	}
	if len(c.versions) > 1 && !c.listed {
		c.listed = true
		s.history = append(s.history, c)
	}
}

// SetRetainFloor raises the retention floor to stamp (clamped to the
// newest stamp; the floor never moves backwards) and switches the
// store to manual floor advancement: commits stop superseding history
// on their own, and versions are retained back to the floor — the
// engine wires this to the certifying gate's Compact watermark so
// version GC and certifier GC follow the same low-watermark argument.
// A prune pass over the history list runs under the floor move.
func (s *VersionedStore) SetRetainFloor(stamp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoFloor = false
	if stamp > s.stamp {
		stamp = s.stamp
	}
	if stamp > s.floor {
		s.floor = stamp
	}
	keep := s.keepFromLocked()
	kept := s.history[:0]
	for _, c := range s.history {
		s.prune(c, keep)
		if len(c.versions) > 1 {
			kept = append(kept, c)
		} else {
			c.listed = false
		}
	}
	clear(s.history[len(kept):])
	s.history = kept
}

// Acquire pins a snapshot at the newest committed stamp. Acquisition
// is never denied; release promptly so version GC can advance.
func (s *VersionedStore) Acquire() *StoreSnapshot {
	return &StoreSnapshot{store: s, stamp: s.pin()}
}

// pin pins the newest committed stamp and returns it: Acquire without
// the StoreSnapshot, for the engines' readers. unpin releases it.
func (s *VersionedStore) pin() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.stamp]++
	s.npins++
	return s.stamp
}

func (s *VersionedStore) unpin(stamp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[stamp]; n > 1 {
		s.pins[stamp] = n - 1
	} else {
		delete(s.pins, stamp)
	}
	s.npins--
}

// AcquireAt pins a snapshot at an explicit stamp — any anchor back to
// the retention floor (the certifier's Compact watermark under a
// gate-wired engine) is served; an older one fails with
// ErrSnapshotRetired, a future one with an error naming the newest
// stamp.
func (s *VersionedStore) AcquireAt(stamp uint64) (*StoreSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stamp > s.stamp {
		return nil, fmt.Errorf("exec: snapshot stamp %d beyond newest commit %d", stamp, s.stamp)
	}
	if stamp < s.floor {
		return nil, fmt.Errorf("%w: stamp %d < floor %d", ErrSnapshotRetired, stamp, s.floor)
	}
	s.pins[stamp]++
	s.npins++
	return &StoreSnapshot{store: s, stamp: stamp}, nil
}

// VersionStats snapshots the store's multiversion accounting.
type VersionStats struct {
	// Stamp is the newest committed stamp.
	Stamp uint64
	// Floor is the retention floor (oldest acquirable stamp).
	Floor uint64
	// Versions is the total number of retained versions across items.
	Versions int
	// Pruned is the cumulative number of garbage-collected versions.
	Pruned uint64
	// Pins is the number of live (acquired, unreleased) snapshots.
	Pins int
}

// VersionStats reports the store's retention accounting.
func (s *VersionedStore) VersionStats() VersionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return VersionStats{Stamp: s.stamp, Floor: s.floor, Versions: s.versions, Pruned: s.pruned, Pins: s.npins}
}

// StoreSnapshot is a pinned, immutable view of the store at one
// committed stamp: the state produced by the serial history of the
// commits up to and including that stamp. Reads are safe for
// concurrent use and never observe a later (or an aborted — only
// committed writes ever reach the store) transaction's effects.
// Release the snapshot when done; an unreleased snapshot pins its
// versions against GC forever.
type StoreSnapshot struct {
	store    *VersionedStore
	stamp    uint64
	released bool
	relMu    sync.Mutex
}

// Stamp returns the snapshot's anchor stamp.
func (sn *StoreSnapshot) Stamp() uint64 { return sn.stamp }

// Get returns the item's value as of the snapshot's stamp; ok is
// false when the item did not exist yet.
func (sn *StoreSnapshot) Get(item string) (state.Value, bool) {
	return sn.store.GetAt(item, sn.stamp)
}

// DB materializes the snapshot as a state.DB copy.
func (sn *StoreSnapshot) DB() state.DB {
	return sn.store.SnapshotAt(sn.stamp)
}

// Release unpins the snapshot (idempotent). Superseded versions it
// held become collectable on the next commit or floor move.
func (sn *StoreSnapshot) Release() {
	sn.relMu.Lock()
	defer sn.relMu.Unlock()
	if sn.released {
		return
	}
	sn.released = true
	sn.store.unpin(sn.stamp)
}
