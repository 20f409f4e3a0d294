package graph

import (
	"unsafe"

	"rept/internal/hashing"
	"rept/internal/mem"
)

// EdgeTable is a flat map from canonical edge keys (Key) to a value: the
// degree tracker's live-edge set as EdgeTable[struct{}], whose values
// take no space, and the engine's per-edge closing counters. Neither
// value type holds a pointer, so the GC never scans either slice.
//
// It keeps NodeTable's discipline over hashing.Mix64: keys and values in
// two parallel slices, linear probing, entries removed by backward shift
// (so churn leaves no tombstones behind and never grows the table), and
// growth at 75% load. Key 0 marks an empty slot. It is Key(0, 0), a
// self-loop, which no caller stores.
//
// The zero value is an empty table. An attached accountant is charged
// the backing bytes at growth, never per update. Not safe for concurrent
// use.
type EdgeTable[V any] struct {
	keys []uint64
	vals []V
	n    int

	ac   *mem.Accountant
	comp mem.Component
}

// SetAccountant attaches the byte ledger under comp, immediately
// charging the capacity that already exists; later growth reports its
// own deltas.
func (t *EdgeTable[V]) SetAccountant(ac *mem.Accountant, comp mem.Component) {
	t.ac, t.comp = ac, comp
	ac.Add(comp, t.Bytes())
}

// Len returns the number of entries.
func (t *EdgeTable[V]) Len() int { return t.n }

// Bytes returns the table's backing bytes: its slot capacity times the
// key plus value size.
func (t *EdgeTable[V]) Bytes() int64 {
	var v V
	return int64(len(t.keys)) * int64(8+unsafe.Sizeof(v))
}

// find returns k's slot, or -1 if k is absent.
//
//rept:hotpath
func (t *EdgeTable[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.keys) - 1)
	for i := hashing.Mix64(k) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Get returns k's value, the zero value if k is absent.
//
//rept:hotpath
func (t *EdgeTable[V]) Get(k uint64) V {
	if i := t.find(k); i >= 0 {
		return t.vals[i]
	}
	var zero V
	return zero
}

// Ref returns a pointer to k's value, inserting k with the zero value if
// absent. The pointer is valid until the next insertion or Del.
//
//rept:hotpath
func (t *EdgeTable[V]) Ref(k uint64) *V {
	i, _ := t.slot(k)
	return &t.vals[i]
}

// Put sets k's value to v, reporting whether k was absent.
//
//rept:hotpath
func (t *EdgeTable[V]) Put(k uint64, v V) bool {
	i, fresh := t.slot(k)
	t.vals[i] = v
	return fresh
}

// slot returns k's slot, inserting k with the zero value if absent, and
// reports whether it inserted.
//
//rept:hotpath
func (t *EdgeTable[V]) slot(k uint64) (int, bool) {
	if len(t.keys) == 0 {
		t.grow(tableMinSize)
	}
	mask := uint64(len(t.keys) - 1)
	i := hashing.Mix64(k) & mask
	for c := t.keys[i]; c != 0; c = t.keys[i] {
		if c == k {
			return int(i), false
		}
		i = (i + 1) & mask
	}
	if !fits(t.n+1, len(t.keys)) {
		t.grow(2 * len(t.keys))
		mask = uint64(len(t.keys) - 1)
		i = hashing.Mix64(k) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
	}
	t.keys[i] = k
	t.n++
	return int(i), true
}

// Del removes k's entry by backward shift, reporting whether it was
// present.
//
//rept:hotpath
func (t *EdgeTable[V]) Del(k uint64) bool {
	f := t.find(k)
	if f < 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i, j := uint64(f), uint64(f)
	for {
		j = (j + 1) & mask
		c := t.keys[j]
		if c == 0 {
			break
		}
		if home := hashing.Mix64(c) & mask; (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = c, t.vals[j]
			i = j
		}
	}
	var zero V
	t.keys[i], t.vals[i] = 0, zero
	t.n--
	return true
}

// Each calls fn for every entry, in slot order — deterministic for a
// given history of insertions and deletions, but not sorted.
func (t *EdgeTable[V]) Each(fn func(k uint64, v V)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.vals[i])
		}
	}
}

// grow rehashes into size slots (a power of two at least the current
// size), charging the ledger for the difference.
func (t *EdgeTable[V]) grow(size int) {
	oldK, oldV := t.keys, t.vals
	before := t.Bytes()
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	t.ac.Add(t.comp, t.Bytes()-before)
	mask := uint64(size - 1)
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		i := hashing.Mix64(k) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = k, oldV[j]
	}
}
