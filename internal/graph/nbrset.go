package graph

import "rept/internal/mem"

// This file implements the flat neighbor-set storage: NeighborSets, an
// arena of per-node sets addressed by slot. Adjacency and the engine's
// node dictionary put a NodeTable[int32] in front of it, mapping each
// NodeID to its slot or dense id. An arena entry is 32 bytes and holds no
// pointers: the degree, a layout word, and the first few neighbors
// stored inline (no pointer chase at all for the typical sampled node). A
// set that outgrows the inline array moves to the store's side store,
// which the layout word indexes: first a sorted NodeID slice, then, past
// promoteDeg neighbors, an open-addressing hash set. Sorted layouts
// intersect by merge walk (galloping by binary search when the sizes are
// skewed); promoted sets are probed in O(1). Everything lives in
// contiguous uint32 storage, so an intersection touches a handful of
// cache lines and allocates nothing once capacity exists, and because
// neither the arena nor the index contains a pointer, the garbage
// collector never scans them. A set's 16-bit signature (Sig, the OR of
// SigBit over its neighbors) is not stored here: the engine keeps each
// one in its node dictionary row, where it proves most empty
// intersections empty without touching the arena at all.

// nodeIDBytes is the accounted size of one side-store element (see
// mem.CompAdjacency).
const nodeIDBytes = 4

// inlineCap is how many neighbors live directly in the arena entry. Most
// nodes of a 1/m-sampled adjacency have only a couple of neighbors, so
// this keeps the common case free of any per-node heap block.
const inlineCap = 6

// promoteDeg is the degree at which a sorted-slice neighbor set is
// promoted to an open-addressing set. Below it, insertion's O(deg)
// memmove stays within a couple of cache lines and merge intersection
// beats hashing; above it, probing wins.
const promoteDeg = 32

// mix32 is a full-avalanche 32-bit mixer (lowbias32), the slot hash for
// NodeTable and promoted neighbor sets.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// nset is one node's neighbor set, in one of three layouts chosen by the
// sign of x:
//
//   - inline (x == 0): n ≤ inlineCap neighbors, sorted in inl
//   - spilled (x > 0): the sorted slice side.bufs[x-1]
//   - promoted (x < 0): the open-addressing table side.bufs[-x-1], with
//     n live entries
//
// n is the degree in every layout. Empty table slots hold the owning
// node's own id — a node is never its own neighbor (self-loops are
// rejected upstream), so the owner is a collision-free in-band sentinel
// for every possible NodeID value.
//
// The entry holds no pointer: out-of-line storage is named by index, not
// by slice header, which is what keeps the arena off the garbage
// collector's scan list. TestNsetLayout pins the size and the absence of
// pointer fields.
type nset struct {
	n   int32
	x   int32
	inl [inlineCap]NodeID
}

// NeighborSets is a slot-addressed store of neighbor sets: the arena of
// nset entries, its free list and the side store, with no node index of
// its own. A caller names a set by the slot New returned and passes the
// set's owner with every call (the owner is table mode's empty
// sentinel). Slot 0 is never handed out, so a caller's own tables can
// use 0 for "no set". Adjacency puts a NodeTable[int32] in front of one
// store; each of the engine's processors drives one directly, with the
// engine's node dictionary holding every processor's slot of every node.
//
// Released slots and side-store entries are recycled through free lists,
// so steady-state churn allocates nothing. The zero value is an empty
// store.
type NeighborSets struct {
	sets  []nset
	freed []int32
	side  sideStore
	// ac is the optional byte ledger (nil: unaccounted), charged under
	// mem.CompAdjacency only at capacity transitions — arena growth,
	// spill, promote, table growth, side-store growth — never per event.
	ac *mem.Accountant
}

// SetAccountant attaches the byte ledger. Call it before the first New,
// or the ledger misses the capacity that already exists.
func (s *NeighborSets) SetAccountant(ac *mem.Accountant) { s.ac = ac }

// New returns the slot of a fresh empty set, recycling released slots.
func (s *NeighborSets) New() int32 {
	if n := len(s.freed); n > 0 {
		si := s.freed[n-1]
		s.freed = s.freed[:n-1]
		return si
	}
	if len(s.sets) == 0 {
		appendCharged(&s.sets, nset{}, nsetBytes, s.ac) // slot 0, never handed out
	}
	appendCharged(&s.sets, nset{}, nsetBytes, s.ac)
	return int32(len(s.sets) - 1)
}

// Release empties set si and recycles its slot.
func (s *NeighborSets) Release(si int32) {
	s.sets[si].reset(&s.side, s.ac)
	appendCharged(&s.freed, si, 4, s.ac)
}

// Add inserts w into set si, owned by owner, reporting whether w was
// absent. Inserting the owner itself is rejected.
//
//rept:hotpath
func (s *NeighborSets) Add(si int32, owner, w NodeID) bool {
	return s.sets[si].add(&s.side, owner, w, s.ac)
}

// Remove deletes w from set si, owned by owner, reporting whether it was
// present.
//
//rept:hotpath
func (s *NeighborSets) Remove(si int32, owner, w NodeID) bool {
	return s.sets[si].remove(&s.side, owner, w)
}

// Deg returns the number of neighbors in set si.
func (s *NeighborSets) Deg(si int32) int { return s.sets[si].deg() }

// SigBit returns w's bit in a 16-bit neighbor signature: one of 16 bits,
// picked by the top four bits of a multiplicative hash of w.
//
//rept:hotpath
func SigBit(w NodeID) uint16 { return 1 << (uint32(w) * 0x9e3779b1 >> 28) }

// Sig returns set si's signature, the OR of SigBit over its neighbors
// (0 for an empty set). Two sets whose signatures share no bit share no
// neighbor, so a caller that keeps each set's signature current can prove
// most empty intersections without reading the sets.
//
//rept:hotpath
func (s *NeighborSets) Sig(si int32, owner NodeID) uint16 {
	return s.sets[si].sig(&s.side, owner)
}

// Each calls fn for every neighbor in set si, owned by owner, in
// unspecified order.
func (s *NeighborSets) Each(si int32, owner NodeID, fn func(w NodeID)) {
	s.sets[si].each(&s.side, owner, fn)
}

// Intersect appends the neighbors sets su (owned by u) and sv (owned by
// v) share to dst and returns the extended slice: a merge walk when both
// are small sorted slices, otherwise enumerate-the-smaller
// probe-the-larger, so the cost is O(min(deg u, deg v)) expected.
// Passing a reusable dst[:0] avoids per-call allocation.
//
//rept:hotpath
func (s *NeighborSets) Intersect(su int32, u NodeID, sv int32, v NodeID, dst []NodeID) []NodeID {
	return intersect(&s.side, &s.sets[su], u, &s.sets[sv], v, dst)
}

// IntersectCount returns the size of Intersect's result without
// materializing it.
//
//rept:hotpath
func (s *NeighborSets) IntersectCount(su int32, u NodeID, sv int32, v NodeID) int {
	return intersectCount(&s.side, &s.sets[su], u, &s.sets[sv], v)
}

// Bytes returns the store's backing bytes recomputed from capacities. It
// mirrors the incremental charge sites exactly: the arena, the side
// store's headers and both free lists by capacity, and every side-store
// slice by capacity (a promoted table's capacity is its length; a
// released spill slice keeps its capacity on the free list, so it counts
// too).
func (s *NeighborSets) Bytes() int64 {
	b := int64(cap(s.sets))*nsetBytes +
		int64(cap(s.freed))*4 +
		int64(cap(s.side.bufs))*sideEntryBytes +
		int64(cap(s.side.free))*4
	for _, buf := range s.side.bufs {
		b += int64(cap(buf)) * nodeIDBytes
	}
	return b
}

// Reset drops every set and releases the backing storage, crediting it
// to the ledger. Every slot handed out before is invalid afterwards.
func (s *NeighborSets) Reset() {
	s.ac.Add(mem.CompAdjacency, -s.Bytes())
	*s = NeighborSets{ac: s.ac}
}

// sideStore holds the out-of-line storage of the sets that outgrow
// inline: bufs[k] is the sorted slice (x = k+1) or the hash table
// (x = -k-1) of exactly one set, and free lists the indices no set
// holds. A set that releases a spill slice leaves its capacity in bufs
// for the next set to spill; a released table is dropped.
type sideStore struct {
	bufs [][]NodeID
	free []int32
}

// take returns an unused side-store index, recycling released ones.
func (st *sideStore) take(ac *mem.Accountant) int32 {
	if n := len(st.free); n > 0 {
		k := st.free[n-1]
		st.free = st.free[:n-1]
		return k
	}
	appendCharged(&st.bufs, nil, sideEntryBytes, ac)
	return int32(len(st.bufs) - 1)
}

// appendCharged appends v to *sl, charging the ledger for the capacity
// the append adds (elemBytes per element), if any.
func appendCharged[T any](sl *[]T, v T, elemBytes int64, ac *mem.Accountant) {
	prevCap := cap(*sl)
	*sl = append(*sl, v)
	if c := cap(*sl); c != prevCap {
		ac.Add(mem.CompAdjacency, int64(c-prevCap)*elemBytes)
	}
}

// deg returns the number of neighbors.
func (s *nset) deg() int { return int(s.n) }

// sorted returns the sorted neighbor slice of a non-promoted set.
func (s *nset) sorted(st *sideStore) []NodeID {
	if s.x == 0 {
		return s.inl[:s.n]
	}
	return st.bufs[s.x-1]
}

// table returns the open-addressing table of a promoted set.
func (s *nset) table(st *sideStore) []NodeID { return st.bufs[-s.x-1] }

// reset empties the set for arena reuse, returning its side-store index
// (if any) to the free list. A spill slice keeps its capacity there for
// the next set to spill, and stays on the ledger because the memory stays
// resident; a promoted table is dropped and its bytes leave the ledger (a
// recycled slot usually hosts a fresh low-degree node).
func (s *nset) reset(st *sideStore, ac *mem.Accountant) {
	if s.x != 0 {
		k := s.x - 1
		if s.x < 0 {
			k = -s.x - 1
			ac.Add(mem.CompAdjacency, -int64(len(st.bufs[k]))*nodeIDBytes)
			st.bufs[k] = nil
		} else {
			st.bufs[k] = st.bufs[k][:0]
		}
		appendCharged(&st.free, k, 4, ac)
	}
	s.n, s.x = 0, 0
}

// search returns the insertion position of w in the sorted slice sl.
//
//rept:hotpath
func search(sl []NodeID, w NodeID) int {
	lo, hi := 0, len(sl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sl[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// has reports whether w is a neighbor. owner is the set's node id; asking
// for the owner itself answers false (it doubles as the empty sentinel in
// table mode, and a node is never its own neighbor).
//
//rept:hotpath
func (s *nset) has(st *sideStore, owner, w NodeID) bool {
	if s.x < 0 {
		return tableHas(s.table(st), owner, w)
	}
	sl := s.sorted(st)
	i := search(sl, w)
	return i < len(sl) && sl[i] == w
}

// tableHas reports whether w is in the open-addressing table t whose
// empty slots hold owner.
//
//rept:hotpath
func tableHas(t []NodeID, owner, w NodeID) bool {
	if w == owner {
		return false
	}
	mask := uint32(len(t) - 1)
	for i := mix32(uint32(w)) & mask; ; i = (i + 1) & mask {
		switch t[i] {
		case w:
			return true
		case owner:
			return false
		}
	}
}

// add inserts w, reporting whether it was absent. Inserting the owner
// itself is rejected (self-loops never reach the set, and the owner id is
// the table-mode empty sentinel). Growth transitions (spill, promote,
// grow) live in separate cold functions; the steady-state body allocates
// nothing, and the ledger (ac) is touched only on the capacity-changing
// branches — never per event.
//
//rept:hotpath
func (s *nset) add(st *sideStore, owner, w NodeID, ac *mem.Accountant) bool {
	if w == owner {
		return false
	}
	if s.x >= 0 {
		sl := s.sorted(st)
		i := search(sl, w)
		if i < len(sl) && sl[i] == w {
			return false
		}
		switch {
		case s.x == 0 && int(s.n) < inlineCap:
			// Inline insertion sort.
			copy(s.inl[i+1:s.n+1], s.inl[i:s.n])
			s.inl[i] = w
		case s.x == 0:
			s.spill(st, i, w, ac)
		case len(sl) >= promoteDeg:
			s.promote(st, owner, ac)
			return s.add(st, owner, w, ac)
		default:
			appendCharged(&st.bufs[s.x-1], 0, nodeIDBytes, ac)
			sl = st.bufs[s.x-1]
			copy(sl[i+1:], sl[i:])
			sl[i] = w
		}
		s.n++
		return true
	}
	t := s.table(st)
	if int(s.n) >= len(t)*3/4 {
		t = s.grow(st, owner, len(t)*2, ac)
	}
	mask := uint32(len(t) - 1)
	for i := mix32(uint32(w)) & mask; ; i = (i + 1) & mask {
		switch t[i] {
		case w:
			return false
		case owner:
			t[i] = w
			s.n++
			return true
		}
	}
}

// remove deletes w, reporting whether it was present. Table mode uses
// backward-shift deletion, so probe chains stay tombstone-free.
//
//rept:hotpath
func (s *nset) remove(st *sideStore, owner, w NodeID) bool {
	if w == owner {
		return false
	}
	if s.x == 0 {
		i := search(s.inl[:s.n], w)
		if i >= int(s.n) || s.inl[i] != w {
			return false
		}
		copy(s.inl[i:s.n-1], s.inl[i+1:s.n])
		s.n--
		return true
	}
	if s.x > 0 {
		sl := st.bufs[s.x-1]
		i := search(sl, w)
		if i >= len(sl) || sl[i] != w {
			return false
		}
		copy(sl[i:], sl[i+1:])
		st.bufs[s.x-1] = sl[:len(sl)-1]
		s.n--
		return true
	}
	t := s.table(st)
	mask := uint32(len(t) - 1)
	i := mix32(uint32(w)) & mask
	for ; ; i = (i + 1) & mask {
		if t[i] == w {
			break
		}
		if t[i] == owner {
			return false
		}
	}
	// Backward-shift: pull up any displaced entry whose home slot lies at
	// or before the hole, preserving every probe chain.
	j := i
	for {
		j = (j + 1) & mask
		if t[j] == owner {
			break
		}
		home := mix32(uint32(t[j])) & mask
		if (j-home)&mask >= (j-i)&mask {
			t[i] = t[j]
			i = j
		}
	}
	t[i] = owner
	s.n--
	return true
}

// spill moves inline storage to a side-store slice, inserting w at
// position i. It is the one-time growth transition out of add's inline
// layout, kept as a separate cold function so add itself stays
// allocation-free under the //rept:hotpath gate. A recycled index brings
// the capacity a released spill slice left behind.
func (s *nset) spill(st *sideStore, i int, w NodeID, ac *mem.Accountant) {
	k := st.take(ac)
	sl := st.bufs[k]
	if sl == nil {
		sl = make([]NodeID, 0, 2*inlineCap)
		ac.Add(mem.CompAdjacency, int64(cap(sl))*nodeIDBytes)
	}
	sl = append(sl, s.inl[:i]...)
	sl = append(sl, w)
	sl = append(sl, s.inl[i:s.n]...)
	st.bufs[k] = sl
	s.x = k + 1
}

// newTable returns an empty open-addressing table of size slots (a power
// of two), every slot holding the owner sentinel.
func newTable(owner NodeID, size int) []NodeID {
	t := make([]NodeID, size)
	for i := range t {
		t[i] = owner
	}
	return t
}

// promote migrates the sorted spill slice into a fresh open-addressing
// table, which takes over the slice's side-store index.
func (s *nset) promote(st *sideStore, owner NodeID, ac *mem.Accountant) {
	k := s.x - 1
	old := st.bufs[k]
	ac.Add(mem.CompAdjacency, int64(4*promoteDeg-cap(old))*nodeIDBytes)
	st.bufs[k] = newTable(owner, 4*promoteDeg)
	s.x = -k - 1
	s.n = 0
	for _, w := range old {
		s.add(st, owner, w, ac)
	}
}

// grow rehashes the table into size slots (a power of two) and returns
// the new table.
func (s *nset) grow(st *sideStore, owner NodeID, size int, ac *mem.Accountant) []NodeID {
	k := -s.x - 1
	old := st.bufs[k]
	ac.Add(mem.CompAdjacency, int64(size-len(old))*nodeIDBytes)
	st.bufs[k] = newTable(owner, size)
	s.n = 0
	for _, w := range old {
		if w != owner {
			s.add(st, owner, w, ac)
		}
	}
	return st.bufs[k]
}

// sig returns the OR of SigBit over the neighbors. A table is scanned
// only until all 16 bits are set, which a hub's table reaches within a
// few dozen entries.
//
//rept:hotpath
func (s *nset) sig(st *sideStore, owner NodeID) uint16 {
	var sig uint16
	if s.x >= 0 {
		for _, w := range s.sorted(st) {
			sig |= SigBit(w)
		}
		return sig
	}
	for _, w := range s.table(st) {
		if w != owner {
			if sig |= SigBit(w); sig == 0xffff {
				break
			}
		}
	}
	return sig
}

// each calls fn for every neighbor, in unspecified order.
func (s *nset) each(st *sideStore, owner NodeID, fn func(w NodeID)) {
	if s.x >= 0 {
		for _, w := range s.sorted(st) {
			fn(w)
		}
		return
	}
	for _, w := range s.table(st) {
		if w != owner {
			fn(w)
		}
	}
}

// intersectSorted appends the intersection of two sorted slices to dst: a
// plain merge walk for comparable sizes, a galloping binary-search walk
// when one side is much longer.
//
//rept:hotpath
func intersectSorted(a, b []NodeID, dst []NodeID) []NodeID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= 8*len(a) {
		lo := 0
		for _, w := range a {
			i := lo + search(b[lo:], w)
			if i < len(b) && b[i] == w {
				dst = append(dst, w)
				i++
			}
			lo = i
			if lo >= len(b) {
				break
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			dst = append(dst, x)
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
	return dst
}

// intersect appends N(su) ∩ N(sv) to dst. Sorted layouts merge- or
// gallop-walk against each other; any probe-able side is probed from the
// smaller enumerable side.
//
//rept:hotpath
func intersect(st *sideStore, su *nset, ou NodeID, sv *nset, ov NodeID, dst []NodeID) []NodeID {
	if su.x >= 0 && sv.x >= 0 {
		return intersectSorted(su.sorted(st), sv.sorted(st), dst)
	}
	// Enumerate the smaller set, probe the larger (at least one side is a
	// table; prefer probing it).
	if su.x < 0 && (sv.x >= 0 || sv.n <= su.n) {
		su, ou, sv, ov = sv, ov, su, ou
	}
	t := sv.table(st)
	if su.x >= 0 {
		for _, w := range su.sorted(st) {
			if tableHas(t, ov, w) {
				dst = append(dst, w)
			}
		}
		return dst
	}
	for _, w := range su.table(st) {
		if w != ou && tableHas(t, ov, w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// intersectCount returns |N(su) ∩ N(sv)| with the same strategy choices
// as intersect, without materializing the result.
//
//rept:hotpath
func intersectCount(st *sideStore, su *nset, ou NodeID, sv *nset, ov NodeID) int {
	n := 0
	if su.x >= 0 && sv.x >= 0 {
		a, b := su.sorted(st), sv.sorted(st)
		if len(a) > len(b) {
			a, b = b, a
		}
		if len(b) >= 8*len(a) {
			lo := 0
			for _, w := range a {
				i := lo + search(b[lo:], w)
				if i < len(b) && b[i] == w {
					n++
					i++
				}
				lo = i
				if lo >= len(b) {
					break
				}
			}
			return n
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			if x == y {
				n++
				i++
				j++
			} else if x < y {
				i++
			} else {
				j++
			}
		}
		return n
	}
	if su.x < 0 && (sv.x >= 0 || sv.n <= su.n) {
		su, ou, sv, ov = sv, ov, su, ou
	}
	t := sv.table(st)
	if su.x >= 0 {
		for _, w := range su.sorted(st) {
			if tableHas(t, ov, w) {
				n++
			}
		}
		return n
	}
	for _, w := range su.table(st) {
		if w != ou && tableHas(t, ov, w) {
			n++
		}
	}
	return n
}
