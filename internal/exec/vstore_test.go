package exec

// White-box unit tests for the multiversion store: chain/prune
// mechanics, the auto vs. manual retention floor, pinned snapshots,
// and the AcquireAt error contract. The engine-level behavior (sealed
// prefixes, splicing, watermark-anchored GC) is covered by the
// mvread differential suite in mvread_test.go.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pwsr/internal/state"
	"pwsr/internal/txn"
)

func TestVersionedStoreAutoFloorSupersedes(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0, "y": 10}))
	s.commit([]txn.Op{txn.W(0, "x", 1)})
	s.commit([]txn.Op{txn.W(0, "x", 2), txn.W(0, "y", 20)})

	if got := s.Stamp(); got != 2 {
		t.Fatalf("Stamp = %d, want 2", got)
	}
	if v, ver, ok := s.Get("x"); !ok || v.AsInt() != 2 || ver != 2 {
		t.Fatalf("Get(x) = %v@%d, want 2@2", v, ver)
	}
	// With the default auto floor each commit supersedes unpinned
	// history: both chains hold exactly their newest version.
	st := s.VersionStats()
	if st.Versions != 2 {
		t.Fatalf("Versions = %d, want 2 (one per item)", st.Versions)
	}
	if st.Pruned != 3 { // x's v0 and v1, y's v0
		t.Fatalf("Pruned = %d, want 3", st.Pruned)
	}
	if st.Floor != 2 {
		t.Fatalf("Floor = %d, want 2 (auto floor tracks the stamp)", st.Floor)
	}
}

func TestVersionedStorePinsRetainVersions(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	sn := s.Acquire() // pins stamp 0
	if sn.Stamp() != 0 {
		t.Fatalf("snapshot stamp = %d, want 0", sn.Stamp())
	}
	s.commit([]txn.Op{txn.W(0, "x", 1)})
	s.commit([]txn.Op{txn.W(0, "x", 2)})

	// The pin holds every version the snapshot can observe against the
	// advancing auto floor.
	if v, ok := sn.Get("x"); !ok || v.AsInt() != 0 {
		t.Fatalf("pinned snapshot reads x = %v, want the frozen 0", v)
	}
	st := s.VersionStats()
	if st.Pins != 1 {
		t.Fatalf("Pins = %d, want 1", st.Pins)
	}
	if st.Versions != 3 {
		t.Fatalf("Versions = %d, want 3 (pin blocks pruning)", st.Versions)
	}

	sn.Release()
	sn.Release() // idempotent
	if st := s.VersionStats(); st.Pins != 0 {
		t.Fatalf("Pins after release = %d, want 0", st.Pins)
	}
	// The next commit collects what the pin held.
	s.commit([]txn.Op{txn.W(0, "x", 3)})
	if st := s.VersionStats(); st.Versions != 1 {
		t.Fatalf("Versions after release+commit = %d, want 1", st.Versions)
	}
	if _, ok := s.GetAt("x", 0); ok {
		t.Fatal("GetAt(0) served a pruned version")
	}
}

func TestVersionedStoreManualFloor(t *testing.T) {
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	s.SetRetainFloor(0) // switch to manual retention: keep everything
	for i := 1; i <= 5; i++ {
		s.commit([]txn.Op{txn.W(0, "x", int64(i))})
	}
	if st := s.VersionStats(); st.Versions != 6 || st.Floor != 0 {
		t.Fatalf("Versions = %d Floor = %d, want 6 at floor 0", st.Versions, st.Floor)
	}
	if v, ok := s.GetAt("x", 3); !ok || v.AsInt() != 3 {
		t.Fatalf("GetAt(3) = %v, want 3", v)
	}
	if db := s.SnapshotAt(2); db["x"].AsInt() != 2 {
		t.Fatalf("SnapshotAt(2)[x] = %v, want 2", db["x"])
	}

	sn, err := s.AcquireAt(3)
	if err != nil {
		t.Fatalf("AcquireAt(3): %v", err)
	}
	if _, err := s.AcquireAt(6); err == nil || errors.Is(err, ErrSnapshotRetired) {
		t.Fatalf("AcquireAt beyond newest = %v, want a non-retired error", err)
	}

	// Raising the floor prunes what no anchor ≥ floor (and no pin) can
	// observe: versions 0 and 1 go, 2..5 stay.
	s.SetRetainFloor(2)
	if st := s.VersionStats(); st.Versions != 4 || st.Floor != 2 {
		t.Fatalf("after SetRetainFloor(2): Versions = %d Floor = %d, want 4 at 2", st.Versions, st.Floor)
	}
	if _, err := s.AcquireAt(1); !errors.Is(err, ErrSnapshotRetired) {
		t.Fatalf("AcquireAt(1) below floor = %v, want ErrSnapshotRetired", err)
	}
	// The floor never moves backwards.
	s.SetRetainFloor(1)
	if got := s.Floor(); got != 2 {
		t.Fatalf("Floor after lowering attempt = %d, want 2", got)
	}
	// And is clamped to the newest stamp; the pin at 3 keeps 3..5.
	s.SetRetainFloor(99)
	if got := s.Floor(); got != 5 {
		t.Fatalf("Floor after clamp = %d, want 5", got)
	}
	if v, ok := sn.Get("x"); !ok || v.AsInt() != 3 {
		t.Fatalf("pinned snapshot at 3 reads %v, want 3", v)
	}
	sn.Release()
	s.commit([]txn.Op{txn.W(0, "x", 6)})
	// The manual floor stays at 5, so version 5 remains acquirable
	// alongside the new version 6; only the released pin's 3 and 4 go.
	if st := s.VersionStats(); st.Versions != 2 || st.Floor != 5 {
		t.Fatalf("after release+commit: Versions = %d Floor = %d, want 2 at 5", st.Versions, st.Floor)
	}
}

// refStore is the retention rule written the plain way, for
// TestVersionedStoreMatchesReference: a commit collapses its writes into
// a map, a floor move prunes every chain of the store, and the
// accounting walks the store.
type refStore struct {
	items        map[string][]versionedItem
	stamp, floor uint64
	autoFloor    bool
	pins         map[uint64]int
	pruned       uint64
}

func (r *refStore) keep() uint64 {
	keep := r.floor
	for st := range r.pins {
		keep = min(keep, st)
	}
	return keep
}

func (r *refStore) prune(item string, keep uint64) {
	chain := r.items[item]
	drop := 0
	for drop < len(chain)-1 && chain[drop+1].ver <= keep {
		drop++
	}
	r.pruned += uint64(drop)
	r.items[item] = chain[drop:]
}

func (r *refStore) commit(ops []txn.Op) {
	writes := map[string]state.Value{}
	for _, o := range ops {
		if o.Action == txn.ActionWrite {
			writes[o.Entity] = o.Value
		}
	}
	if len(writes) == 0 {
		return
	}
	r.stamp++
	if r.autoFloor {
		r.floor = r.stamp
	}
	keep := r.keep()
	for item, v := range writes {
		r.items[item] = append(slices.Clone(r.items[item]), versionedItem{val: v, ver: r.stamp})
		r.prune(item, keep)
	}
}

func (r *refStore) setRetainFloor(stamp uint64) {
	r.autoFloor = false
	r.floor = max(r.floor, min(stamp, r.stamp))
	keep := r.keep()
	for item := range r.items {
		r.prune(item, keep)
	}
}

func (r *refStore) stats() VersionStats {
	st := VersionStats{Stamp: r.stamp, Floor: r.floor, Pruned: r.pruned}
	for _, chain := range r.items {
		st.Versions += len(chain)
	}
	for _, n := range r.pins {
		st.Pins += n
	}
	return st
}

// TestVersionedStoreMatchesReference drives the store and refStore
// through the same random commits (repeated and new items, several
// writes of one item in a commit, commits without writes), pins,
// releases and floor moves, and requires after every step the same
// accounting and the same value of every item at every stamp. It also
// checks the history list's invariant — every chain holding more than
// one version is on it, once — which is what lets a floor move visit
// the list instead of the store.
func TestVersionedStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 40; trial++ {
		initial := state.Ints(map[string]int64{"a": 0, "b": 1, "c": 2, "d": 3})
		s := NewVersionedStore(initial)
		r := &refStore{items: map[string][]versionedItem{}, autoFloor: true, pins: map[uint64]int{}}
		for k, v := range initial {
			r.items[k] = []versionedItem{{val: v}}
		}
		var held []*StoreSnapshot
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				var ops []txn.Op
				for n := rng.Intn(4); n > 0; n-- {
					item := names[rng.Intn(len(names))]
					if rng.Intn(3) == 0 {
						ops = append(ops, txn.R(0, item, 0))
					} else {
						ops = append(ops, txn.W(0, item, int64(rng.Intn(1000))))
					}
				}
				s.commit(ops)
				r.commit(ops)
			case op < 7:
				sn := s.Acquire()
				r.pins[sn.Stamp()]++
				held = append(held, sn)
			case op < 9 && len(held) > 0:
				k := rng.Intn(len(held))
				sn := held[k]
				held = slices.Delete(held, k, k+1)
				sn.Release()
				if r.pins[sn.Stamp()]--; r.pins[sn.Stamp()] == 0 {
					delete(r.pins, sn.Stamp())
				}
			default:
				st := uint64(rng.Intn(int(s.Stamp()) + 2))
				s.SetRetainFloor(st)
				r.setRetainFloor(st)
			}

			if got, want := s.VersionStats(), r.stats(); got != want {
				t.Fatalf("trial %d step %d: stats %+v, reference %+v", trial, step, got, want)
			}
			for _, item := range names {
				for st := uint64(0); st <= s.Stamp(); st++ {
					got, gok := s.GetAt(item, st)
					want, wok := r.getAt(item, st)
					if gok != wok || got != want {
						t.Fatalf("trial %d step %d: %s at %d = %v/%v, reference %v/%v", trial, step, item, st, got, gok, want, wok)
					}
				}
			}
			onList := map[*chain]int{}
			for _, c := range s.history {
				onList[c]++
				if !c.listed || onList[c] > 1 {
					t.Fatalf("trial %d step %d: history lists a chain %d times (listed %v)", trial, step, onList[c], c.listed)
				}
			}
			for item, c := range s.items {
				if len(c.versions) > 1 && onList[c] == 0 {
					t.Fatalf("trial %d step %d: %s holds %d versions off the history list", trial, step, item, len(c.versions))
				}
			}
		}
	}
}

func (r *refStore) getAt(item string, stamp uint64) (state.Value, bool) {
	chain := r.items[item]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ver <= stamp {
			return chain[i].val, true
		}
	}
	return state.Value{}, false
}

func TestVersionedStoreGetCommitRace(t *testing.T) {
	// Regression: Get used to copy the chain slice header under RLock
	// but read the last element after RUnlock. prune
	// compacts chains in place (the auto floor prunes on every commit,
	// reusing the backing array), so a concurrent committer could
	// rewrite the element a speculative reader was loading. Readers
	// hammer Get while commits prune; the race detector flags the torn
	// access, and the stamp/value pairing (commit i writes x=i at
	// stamp i) catches it even without -race.
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, ver, ok := s.Get("x")
				if !ok {
					t.Error("Get(x) lost the item")
					return
				}
				if v.AsInt() != int64(ver) {
					t.Errorf("torn read: value %d at stamp %d", v.AsInt(), ver)
					return
				}
				// Yield with the Get still unpublished to the committer's
				// clock, so the loops interleave even on one CPU.
				runtime.Gosched()
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		s.commit([]txn.Op{txn.W(0, "x", int64(i))})
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
}

func TestVersionedStoreAcquireNeverDenied(t *testing.T) {
	// The read path's headline contract: Acquire at the newest stamp
	// has no failure mode, at any floor, with any pin population.
	s := NewVersionedStore(state.Ints(map[string]int64{"x": 0}))
	for i := 1; i <= 50; i++ {
		s.commit([]txn.Op{txn.W(0, "x", int64(i))})
		sn := s.Acquire()
		if v, ok := sn.Get("x"); !ok || v.AsInt() != int64(i) {
			t.Fatalf("commit %d: snapshot reads %v", i, v)
		}
		if i%2 == 0 {
			sn.Release()
		}
	}
	if st := s.VersionStats(); st.Pins != 25 {
		t.Fatalf("Pins = %d, want 25 leaked on purpose", st.Pins)
	}
}
