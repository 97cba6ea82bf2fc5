// Package intern provides dense-integer interning for the certification
// hot path: entity names and transaction ids are mapped to consecutive
// small ints once per schedule or monitor, so graph code downstream can
// use slice-indexed adjacency instead of map-of-maps, and comparisons
// become integer equality instead of string hashing.
package intern

import "hash/maphash"

// Strings interns string keys to dense int32 ids in first-seen order.
// The lookup path is an open-addressing table over (hash, id+1) pairs
// rather than a Go map: the monitor pays one string lookup per
// observed operation, and the flat probe — one maphash, one slot load,
// one 64-bit hash compare, one string compare — shaves the map's
// generic bucket machinery off that per-op cost. The zero value is not
// usable; call NewStrings.
type Strings struct {
	seed  maphash.Seed
	slots []stringSlot
	names []string
}

// stringSlot is one open-addressing entry: the key's full hash (so
// collisions rarely reach the string compare) and the dense id + 1
// (0 = empty slot).
type stringSlot struct {
	hash uint64
	id   int32
}

// NewStrings returns an empty string interner.
func NewStrings() *Strings {
	return &Strings{seed: maphash.MakeSeed()}
}

// ID returns the dense id for s, assigning the next free id when s has
// not been seen before. Ids are consecutive from 0 in first-seen order.
func (t *Strings) ID(s string) int32 {
	h := maphash.String(t.seed, s)
	if len(t.slots) != 0 {
		mask := len(t.slots) - 1
		for i := int(h) & mask; ; i = (i + 1) & mask {
			sl := t.slots[i]
			if sl.id == 0 {
				break
			}
			if sl.hash == h && t.names[sl.id-1] == s {
				return sl.id - 1
			}
		}
	}
	id := int32(len(t.names))
	t.names = append(t.names, s)
	t.insert(h, id)
	return id
}

// Lookup returns the dense id for s without interning it.
func (t *Strings) Lookup(s string) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	h := maphash.String(t.seed, s)
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl.id == 0 {
			return 0, false
		}
		if sl.hash == h && t.names[sl.id-1] == s {
			return sl.id - 1, true
		}
	}
}

// insert places an id in the table, growing at 50% load.
func (t *Strings) insert(h uint64, id int32) {
	if 2*(len(t.names)+1) > len(t.slots) {
		old := t.slots
		n := 2 * len(old)
		if n < 64 {
			n = 64
		}
		t.slots = make([]stringSlot, n)
		for _, sl := range old {
			if sl.id != 0 {
				t.place(sl)
			}
		}
	}
	t.place(stringSlot{hash: h, id: id + 1})
}

// place inserts into the first free slot of the probe run.
func (t *Strings) place(sl stringSlot) {
	mask := len(t.slots) - 1
	i := int(sl.hash) & mask
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = sl
}

// Name returns the string interned as id.
func (t *Strings) Name(id int32) string { return t.names[id] }

// Len returns the number of interned strings.
func (t *Strings) Len() int { return len(t.names) }

// IDs interns sparse int keys (e.g. transaction ids) to dense int32 ids
// in first-seen order. The zero value is not usable; call NewIDs.
type IDs struct {
	dense map[int]int32
	orig  []int
}

// NewIDs returns an empty int interner.
func NewIDs() *IDs {
	return &IDs{dense: make(map[int]int32)}
}

// ID returns the dense id for orig, assigning the next free id when
// orig has not been seen before.
func (t *IDs) ID(orig int) int32 {
	if id, ok := t.dense[orig]; ok {
		return id
	}
	id := int32(len(t.orig))
	t.dense[orig] = id
	t.orig = append(t.orig, orig)
	return id
}

// Lookup returns the dense id for orig without interning it.
func (t *IDs) Lookup(orig int) (int32, bool) {
	id, ok := t.dense[orig]
	return id, ok
}

// Remap renumbers the interned keys in place: remap[d] is the new dense
// id of the key interned as d, or -1 to forget it. The survivors' new
// ids must be their ranks among the survivors (a stable filter). The
// map and the key slice keep their capacity, so keys interned later
// reuse it.
func (t *IDs) Remap(remap []int32) {
	n := 0
	for d, orig := range t.orig {
		if nd := remap[d]; nd < 0 {
			delete(t.dense, orig)
		} else {
			t.dense[orig] = nd
			t.orig[nd] = orig
			n++
		}
	}
	t.orig = t.orig[:n]
}

// Orig returns the original key interned as the dense id.
func (t *IDs) Orig(id int32) int { return t.orig[id] }

// Len returns the number of interned keys.
func (t *IDs) Len() int { return len(t.orig) }
