package core

// edgeTable is an open-addressing hash table from packed conflict-edge
// keys (edgeKey; never 0, since an edge x → x cannot exist) to item
// reference counts. It replaces a Go map on the admission hot path:
// one multiplicative hash plus a short linear probe beats the runtime
// map's generic machinery for this fixed uint64→int32 shape, and the
// backing arrays are reused across growth (no per-entry allocation).
// The zero value is an empty table.
type edgeTable struct {
	// keys holds the packed edges (0 = empty slot); vals the counts.
	// len(keys) is always a power of two.
	keys []uint64
	vals []int32
	used int
}

// edgeTableMinSize is the initial capacity of a non-empty table.
const edgeTableMinSize = 16

// home returns the key's preferred slot (Fibonacci hashing).
func (t *edgeTable) home(key uint64) int {
	// 2^64 / φ; the high bits of the product are well-mixed for packed
	// (x, y) pairs.
	h := key * 0x9E3779B97F4A7C15
	return int(h >> 32 & uint64(len(t.keys)-1))
}

// get returns the key's count (0 when absent).
func (t *edgeTable) get(key uint64) int32 {
	if len(t.keys) == 0 {
		return 0
	}
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			return t.vals[i]
		}
		if k == 0 {
			return 0
		}
	}
}

// set inserts or updates the key's count (which must be positive; a
// count reaching zero is removed with del).
func (t *edgeTable) set(key uint64, v int32) {
	if 2*(t.used+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			t.vals[i] = v
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = v
			t.used++
			return
		}
	}
}

// del removes the key, back-shifting the displaced run so probes stay
// tombstone-free.
func (t *edgeTable) del(key uint64) {
	if len(t.keys) == 0 {
		return
	}
	mask := len(t.keys) - 1
	i := t.home(key)
	for {
		k := t.keys[i]
		if k == 0 {
			return // absent
		}
		if k == key {
			break
		}
		i = (i + 1) & mask
	}
	t.keys[i] = 0
	t.used--
	// Back-shift: any later entry in the probe run whose home does not
	// lie strictly after the emptied slot moves into it.
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == 0 {
			return
		}
		h := t.home(k)
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i] = k
			t.vals[i] = t.vals[j]
			t.keys[j] = 0
			i = j
		}
	}
}

// edgeCount is one entry of an edgeTable.
type edgeCount struct {
	key uint64
	n   int32
}

// rekey rewrites every key through f (0 drops the entry) and rehashes
// the survivors into the table's own arrays. buf is scratch for the
// survivors; it is returned for the next call.
func (t *edgeTable) rekey(f func(uint64) uint64, buf []edgeCount) []edgeCount {
	buf = buf[:0]
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		if nk := f(k); nk != 0 {
			buf = append(buf, edgeCount{key: nk, n: t.vals[i]})
		}
	}
	clear(t.keys)
	t.used = 0
	for _, e := range buf {
		t.set(e.key, e.n)
	}
	return buf
}

// grow doubles the table (or allocates the initial one) and rehashes.
func (t *edgeTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	n := 2 * len(oldKeys)
	if n < edgeTableMinSize {
		n = edgeTableMinSize
	}
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.used = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.set(k, oldVals[i])
		}
	}
}
