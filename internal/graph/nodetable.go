package graph

import (
	"slices"
	"unsafe"
)

// nodeValue is the value type set of NodeTable: the class sums, the
// degree tracker's saturating counters, dense ids and slots, and presence
// masks.
type nodeValue interface {
	~int32 | ~int64 | ~uint32 | ~uint64
}

// NodeTable is a pointer-free map from NodeID to an integer value, the
// one table behind every NodeID key: the engine's node dictionary
// (NodeID → dense id) and Adjacency's index (NodeID → arena slot), the
// flat per-node state that runs from the engine's class sums and their
// delta tables through the shard merge to the published view, the
// degree tracker's counters, and MaskTable. An epoch sums the engines'
// deltas onto the previous view's tables (SumTables) instead of building
// Go maps, and each engine clears its delta in place (Clear).
// EdgeTable is its twin for edge keys.
//
// Storage is open addressing with linear probing over mix32, entries
// removed by backward shift, so churn leaves no tombstones behind. Keys
// and values live in two parallel slices, so Clone is two slice copies
// and the GC never scans either. The table grows at 75% load. One
// ceiling serves the per-event probes too: moving the node dictionary
// from a packed index grown at 50% load onto this table left e2ebench's
// cpu_us_per_event within run-to-run noise (ingest-powerlaw 7.04 → 7.08
// µs, parent interquartile range 0.13; read-mix 9.43 → 9.43) and cut
// read-mix's mem.masks_mib from 63.6 to 55.6 MiB (medians of 5
// alternating pairs, 2-core Xeon VM, go1.24). Packing each key beside
// its value instead would grow the int64 class sums, which every epoch
// copies whole, from 12 to 16 bytes per slot.
//
// Key 0 marks an empty slot; node 0 itself lives in a dedicated field.
// An entry stays present once inserted, whatever its value, until it is
// deleted or the table is Reset: a class sum that nets to zero after
// deletions keeps its key, and snapshots carry it like any other.
//
// The zero value is an empty table. Not safe for concurrent mutation; a
// table no one mutates any more (a clone handed to readers) may be read
// from any number of goroutines.
type NodeTable[V nodeValue] struct {
	keys []NodeID
	vals []V
	n    int // occupied slots, node 0 excluded

	hasZero bool
	zero    V
}

// tableMinSize is the first allocation of a NodeTable or EdgeTable.
const tableMinSize = 16

// Len returns the number of entries.
func (t *NodeTable[V]) Len() int {
	if t == nil {
		return 0
	}
	n := t.n
	if t.hasZero {
		n++
	}
	return n
}

// Bytes returns the table's backing bytes: its slot capacity times the
// key plus value size. A nil table has none.
func (t *NodeTable[V]) Bytes() int64 {
	if t == nil {
		return 0
	}
	var v V
	return int64(len(t.keys)) * int64(unsafe.Sizeof(NodeID(0))+unsafe.Sizeof(v))
}

// Get returns u's value, 0 if u is absent. A nil table is empty.
//
//rept:hotpath
func (t *NodeTable[V]) Get(u NodeID) V {
	if t == nil {
		return 0
	}
	if u == 0 {
		return t.zero
	}
	if t.n == 0 {
		return 0
	}
	mask := uint32(len(t.keys) - 1)
	for i := mix32(uint32(u)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case u:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// Has reports whether u has an entry.
func (t *NodeTable[V]) Has(u NodeID) bool {
	if t == nil {
		return false
	}
	if u == 0 {
		return t.hasZero
	}
	if t.n == 0 {
		return false
	}
	mask := uint32(len(t.keys) - 1)
	for i := mix32(uint32(u)) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case u:
			return true
		case 0:
			return false
		}
	}
}

// ref returns a pointer to u's value, inserting u with value 0 if absent.
// The pointer is valid until the next insertion, del or Reset.
//
//rept:hotpath
func (t *NodeTable[V]) ref(u NodeID) *V {
	if u == 0 {
		t.hasZero = true
		return &t.zero
	}
	if len(t.keys) == 0 {
		t.grow(tableMinSize)
	}
	mask := uint32(len(t.keys) - 1)
	i := mix32(uint32(u)) & mask
	for k := t.keys[i]; k != 0; k = t.keys[i] {
		if k == u {
			return &t.vals[i]
		}
		i = (i + 1) & mask
	}
	if !fits(t.n+1, len(t.keys)) {
		t.grow(2 * len(t.keys))
		mask = uint32(len(t.keys) - 1)
		i = mix32(uint32(u)) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
	}
	t.keys[i] = u
	t.n++
	return &t.vals[i]
}

// Add adds d to u's value, inserting u if absent.
//
//rept:hotpath
func (t *NodeTable[V]) Add(u NodeID, d V) { *t.ref(u) += d }

// Put sets u's value to x, inserting u if absent.
func (t *NodeTable[V]) Put(u NodeID, x V) { *t.ref(u) = x }

// Del removes u's entry (backward shift); deleting an absent node is a
// no-op.
func (t *NodeTable[V]) Del(u NodeID) {
	if u == 0 {
		t.hasZero, t.zero = false, 0
		return
	}
	if t.n == 0 {
		return
	}
	mask := uint32(len(t.keys) - 1)
	i := mix32(uint32(u)) & mask
	for t.keys[i] != u {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		if home := mix32(uint32(k)) & mask; (j-home)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = k, t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, 0
	t.n--
}

// Reset drops every entry and releases the backing storage.
func (t *NodeTable[V]) Reset() {
	t.keys, t.vals, t.n = nil, nil, 0
	t.hasZero, t.zero = false, 0
}

// Clear drops every entry. It keeps the backing storage, so a table
// refilled every epoch stops allocating once it has
// grown to its working size, unless fewer than an eighth of the slots
// held entries: then it releases the storage like Reset, and the next
// fill regrows the table to its own size. A table grown to hold n entries
// is more than 3/8 full, so refills of a steady size neither grow nor
// shrink it, while a table left at the peak of one large fill comes back
// down after the next small one. Clearing a nil table does nothing.
func (t *NodeTable[V]) Clear() {
	if t == nil {
		return
	}
	if len(t.keys) > tableMinSize && 8*t.n < len(t.keys) {
		t.Reset()
		return
	}
	clear(t.keys)
	clear(t.vals)
	t.n = 0
	t.hasZero, t.zero = false, 0
}

// Each calls fn for every entry, in slot order — deterministic for a
// given history of insertions, but not sorted.
func (t *NodeTable[V]) Each(fn func(u NodeID, x V)) {
	if t == nil {
		return
	}
	if t.hasZero {
		fn(0, t.zero)
	}
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.vals[i])
		}
	}
}

// Clone returns an independent copy: two slice copies. Cloning a nil
// table returns nil.
func (t *NodeTable[V]) Clone() *NodeTable[V] {
	if t == nil {
		return nil
	}
	return &NodeTable[V]{
		keys:    slices.Clone(t.keys),
		vals:    slices.Clone(t.vals),
		n:       t.n,
		hasZero: t.hasZero,
		zero:    t.zero,
	}
}

// SumTables returns a new table holding, for every node any source holds,
// the sum of its values across the sources (nil sources are empty). It
// never aliases a source and allocates its storage exactly once, however
// many nodes there are: it sizes the result for the largest source plus
// the other sources' nodes missing from it, then starts from a copy of
// the largest source — a plain slice copy when its capacity suffices.
func SumTables[V nodeValue](srcs ...*NodeTable[V]) *NodeTable[V] {
	bi := -1
	for i, s := range srcs {
		if bi < 0 || s.Len() > srcs[bi].Len() {
			bi = i
		}
	}
	if bi < 0 || srcs[bi] == nil {
		return &NodeTable[V]{}
	}
	base := srcs[bi]
	upper := base.n // nodes the result may need, node 0 aside
	for i, s := range srcs {
		if i != bi && s != nil {
			upper += s.n
		}
	}
	size := len(base.keys)
	if !fits(upper, size) {
		size = max(size, tableMinSize)
		// Count the missing nodes only as far as the size decision
		// needs: when even the upper bound fits twice the size, a count
		// past the current headroom already decides one doubling.
		stop := -1
		if fits(upper, 2*size) {
			stop = 3*size/4 - base.n
		}
		extra := 0
		for i, s := range srcs {
			if i == bi || s == nil {
				continue
			}
			if stop >= 0 && extra > stop {
				break
			}
			left := -1
			if stop >= 0 {
				left = stop - extra
			}
			extra += base.missing(s, left)
		}
		for !fits(base.n+extra, size) {
			size *= 2
		}
	}
	var out *NodeTable[V]
	if size == len(base.keys) {
		out = base.Clone()
	} else {
		out = &NodeTable[V]{keys: make([]NodeID, size), vals: make([]V, size), hasZero: base.hasZero, zero: base.zero}
		out.addFrom(base)
	}
	for i, s := range srcs {
		if i == bi || s == nil {
			continue
		}
		if s.hasZero {
			out.Add(0, s.zero)
		}
		out.addFrom(s)
	}
	return out
}

// fits reports whether n entries stay within the 75% load ceiling of
// size slots, the one ceiling of NodeTable and EdgeTable.
func fits(n, size int) bool { return 4*n <= 3*size }

// missing counts src's nodes, node 0 aside, that t lacks, returning as
// soon as the count passes stop (a negative stop counts them all).
func (t *NodeTable[V]) missing(src *NodeTable[V], stop int) int {
	if t.n == 0 {
		return src.n
	}
	n := 0
	mask := uint32(len(t.keys) - 1)
	for _, k := range src.keys {
		if k == 0 {
			continue
		}
		i := mix32(uint32(k)) & mask
		for t.keys[i] != k && t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		if t.keys[i] == 0 {
			if n++; stop >= 0 && n > stop {
				return n
			}
		}
	}
	return n
}

// addFrom adds src's entries, node 0 aside, into t, which must have room
// for every node src adds without passing the load ceiling.
func (t *NodeTable[V]) addFrom(src *NodeTable[V]) {
	mask := uint32(len(t.keys) - 1)
	for j, k := range src.keys {
		if k == 0 {
			continue
		}
		i := mix32(uint32(k)) & mask
		for t.keys[i] != k && t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		if t.keys[i] == 0 {
			t.keys[i] = k
			t.n++
		}
		t.vals[i] += src.vals[j]
	}
}

// grow rehashes into size slots (a power of two at least the current
// size).
func (t *NodeTable[V]) grow(size int) {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]NodeID, size)
	t.vals = make([]V, size)
	mask := uint32(size - 1)
	for j, k := range oldK {
		if k == 0 {
			continue
		}
		i := mix32(uint32(k)) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = k, oldV[j]
	}
}
