package intern

import (
	"sync"
	"sync/atomic"
)

// Shared interns string keys to dense int32 ids like Strings, but is
// safe for concurrent use by many readers and writers. The read path
// (Lookup, Name, Len, and the hit case of ID) is lock-free: readers
// load an immutable copy-on-write snapshot with a single atomic
// pointer read, so concurrent monitor shards never serialize on the
// intern table. Only a miss takes the mutex, copies the table with the
// new entry, and publishes the next snapshot — the right trade for an
// intern table, whose working set stops growing once the workload's
// items have all been seen, leaving a write-free steady state. It is the
// wrong trade for a table whose keys keep arriving: a miss costs a copy
// of the whole table, so a table of live transactions — every
// transaction is a miss once, and leaves again — pays O(live) per
// transaction and O(n²) on a feed that never retires one. That table
// (core.ShardedMonitor's) is a lock-guarded map updated in place.
//
// The zero value is not usable; call NewShared.
type Shared struct {
	snap atomic.Pointer[sharedSnap]
	mu   sync.Mutex
}

// sharedSnap is one immutable published state of the table. names and
// ids are never mutated after publication; misses build a fresh pair.
type sharedSnap struct {
	ids   map[string]int32
	names []string
}

// NewShared returns an empty concurrent string interner.
func NewShared() *Shared {
	s := &Shared{}
	s.snap.Store(&sharedSnap{ids: make(map[string]int32)})
	return s
}

// ID returns the dense id for key, assigning the next free id when key
// has not been seen before. Ids are consecutive from 0 in first-seen
// order. Safe for concurrent use; the hit path is lock-free.
func (s *Shared) ID(key string) int32 {
	if id, ok := s.snap.Load().ids[key]; ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: another writer may have interned key
	// between the snapshot load and the lock acquisition.
	cur := s.snap.Load()
	if id, ok := cur.ids[key]; ok {
		return id
	}
	id := int32(len(cur.names))
	next := &sharedSnap{
		ids:   make(map[string]int32, len(cur.ids)+1),
		names: make([]string, len(cur.names), len(cur.names)+1),
	}
	for k, v := range cur.ids {
		next.ids[k] = v
	}
	copy(next.names, cur.names)
	next.ids[key] = id
	next.names = append(next.names, key)
	s.snap.Store(next)
	return id
}

// Lookup returns the dense id for key without interning it. Lock-free.
func (s *Shared) Lookup(key string) (int32, bool) {
	id, ok := s.snap.Load().ids[key]
	return id, ok
}

// Name returns the string interned as id. Lock-free; id must have been
// returned by a previous ID call.
func (s *Shared) Name(id int32) string { return s.snap.Load().names[id] }

// Len returns the number of interned strings at some recent snapshot.
func (s *Shared) Len() int { return len(s.snap.Load().names) }
