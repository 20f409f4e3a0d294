package graph

// This file implements the flat neighbor-set storage: NeighborSets, an
// arena of per-node sets addressed by slot. Adjacency and the engine's
// node dictionary put a NodeTable[int32] in front of it, mapping each
// NodeID to its slot or dense id. An arena entry is 32 bytes and holds no
// pointers: the degree, a layout word, and up to inlineCap neighbors
// stored inline (no pointer chase at all for the typical sampled node). A
// set that outgrows the inline array moves to an open-addressing hash
// table in the store's side store, which the layout word indexes. One
// intersection routine serves both layouts: it enumerates the set with
// fewer neighbors and probes the other. Everything lives in contiguous
// uint32 storage, so an intersection touches a handful of cache lines and
// allocates nothing once capacity exists, and because neither the arena
// nor the index contains a pointer, the garbage collector never scans
// them. A set's 16-bit signature (Sig, the OR of SigBit over its
// neighbors) is not stored here: the engine keeps each one in its node
// dictionary row, where it proves most empty intersections empty without
// touching the arena at all.

// nodeIDBytes is the size of one table slot.
const nodeIDBytes = 4

// inlineCap is how many neighbors live directly in the arena entry. Most
// nodes of a 1/m-sampled adjacency have only a couple of neighbors, so
// this keeps the common case free of any per-node heap block.
const inlineCap = 6

// minTable is the slot count of a set's first table: room for the
// inlineCap neighbors that move there plus a few more below the 75 %
// load ceiling.
const minTable = 16

// mix32 is a full-avalanche 32-bit mixer (lowbias32), the slot hash for
// NodeTable and neighbor-set tables.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// nset is one node's neighbor set, in one of two layouts chosen by x:
//
//   - inline (x == 0): n ≤ inlineCap neighbors in inl[:n], in arrival
//     order (a removal moves the last neighbor into the hole)
//   - table (x > 0): the open-addressing table side.tables[x-1], with n
//     live entries
//
// n is the degree in both layouts. Empty table slots hold the owning
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
}

// New returns the slot of a fresh empty set, recycling released slots.
func (s *NeighborSets) New() int32 {
	if n := len(s.freed); n > 0 {
		si := s.freed[n-1]
		s.freed = s.freed[:n-1]
		return si
	}
	if len(s.sets) == 0 {
		s.sets = append(s.sets, nset{}) // slot 0, never handed out
	}
	s.sets = append(s.sets, nset{})
	return int32(len(s.sets) - 1)
}

// Release empties set si and recycles its slot.
func (s *NeighborSets) Release(si int32) {
	s.sets[si].reset(&s.side)
	s.freed = append(s.freed, si)
}

// Add inserts w into set si, owned by owner, reporting whether w was
// absent. Inserting the owner itself is rejected.
//
//rept:hotpath
func (s *NeighborSets) Add(si int32, owner, w NodeID) bool {
	return s.sets[si].add(&s.side, owner, w)
}

// Remove deletes w from set si, owned by owner, reporting whether it was
// present.
//
//rept:hotpath
func (s *NeighborSets) Remove(si int32, owner, w NodeID) bool {
	return s.sets[si].remove(&s.side, owner, w)
}

// Deg returns the number of neighbors in set si.
func (s *NeighborSets) Deg(si int32) int { return int(s.sets[si].n) }

// SigBit returns w's bit in a 16-bit neighbor signature: one of 16 bits,
// picked by the top four bits of a multiplicative hash of w.
//
//rept:hotpath
func SigBit(w NodeID) uint16 { return 1 << (uint32(w) * 0x9e3779b1 >> 28) }

// Sig returns set si's signature, the OR of SigBit over its neighbors
// (0 for an empty set). Two sets whose signatures share no bit share no
// neighbor, so a caller that keeps each set's signature current can prove
// most empty intersections without reading the sets. A table is scanned
// only until all 16 bits are set, which a hub's table reaches within a
// few dozen entries.
//
//rept:hotpath
func (s *NeighborSets) Sig(si int32, owner NodeID) uint16 {
	var sig uint16
	for _, w := range s.sets[si].slots(&s.side) {
		if w != owner {
			if sig |= SigBit(w); sig == 0xffff {
				break
			}
		}
	}
	return sig
}

// Each calls fn for every neighbor in set si, owned by owner, in
// unspecified order.
func (s *NeighborSets) Each(si int32, owner NodeID, fn func(w NodeID)) {
	for _, w := range s.sets[si].slots(&s.side) {
		if w != owner {
			fn(w)
		}
	}
}

// Intersect appends the neighbors sets su (owned by u) and sv (owned by
// v) share to dst and returns the extended slice. It enumerates the set
// with fewer neighbors and probes the other, so the cost is
// O(min(deg u, deg v)) expected. Passing a reusable dst[:0] avoids
// per-call allocation.
//
//rept:hotpath
func (s *NeighborSets) Intersect(su int32, u NodeID, sv int32, v NodeID, dst []NodeID) []NodeID {
	a, b := &s.sets[su], &s.sets[sv]
	if b.n < a.n {
		a, u, b, v = b, v, a, u
	}
	for _, w := range a.slots(&s.side) {
		if w != u && b.has(&s.side, v, w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// Bytes returns the store's backing bytes recomputed from capacities:
// the arena, the side store's headers and both free lists by capacity,
// and the live tables by their slot total, which the store keeps
// current, so the call costs O(1).
func (s *NeighborSets) Bytes() int64 {
	return int64(cap(s.sets))*nsetBytes +
		int64(cap(s.freed))*4 +
		int64(cap(s.side.tables))*sideEntryBytes +
		int64(cap(s.side.free))*4 +
		int64(s.side.slots)*nodeIDBytes
}

// Reset drops every set and releases the backing storage. Every slot
// handed out before is invalid afterwards.
func (s *NeighborSets) Reset() { *s = NeighborSets{} }

// sideStore holds the tables of the sets that outgrow inline: tables[k]
// belongs to exactly one set (x = k+1), and free lists the indices no set
// holds. A released table is dropped; its index is recycled. slots is
// the total length of the live tables.
type sideStore struct {
	tables [][]NodeID
	free   []int32
	slots  int
}

// take returns an unused side-store index, recycling released ones. Its
// table is nil.
func (st *sideStore) take() int32 {
	if n := len(st.free); n > 0 {
		k := st.free[n-1]
		st.free = st.free[:n-1]
		return k
	}
	st.tables = append(st.tables, nil)
	return int32(len(st.tables) - 1)
}

// slots returns the set's storage: the inline neighbors, or the whole
// table, whose empty slots hold the owner. Either way the neighbors are
// exactly the elements that differ from the owner.
//
//rept:hotpath
func (s *nset) slots(st *sideStore) []NodeID {
	if s.x == 0 {
		return s.inl[:s.n]
	}
	return st.tables[s.x-1]
}

// reset empties the set for arena reuse. A table is dropped (a recycled
// slot usually hosts a fresh low-degree node), and its side-store index
// returns to the free list.
func (s *nset) reset(st *sideStore) {
	if s.x != 0 {
		k := s.x - 1
		st.slots -= len(st.tables[k])
		st.tables[k] = nil
		st.free = append(st.free, k)
	}
	s.n, s.x = 0, 0
}

// has reports whether w is a neighbor. owner is the set's node id; asking
// for the owner itself answers false (it doubles as the empty sentinel in
// table mode, and a node is never its own neighbor).
//
//rept:hotpath
func (s *nset) has(st *sideStore, owner, w NodeID) bool {
	if s.x == 0 {
		for _, y := range s.inl[:s.n] {
			if y == w {
				return true
			}
		}
		return false
	}
	if w == owner {
		return false
	}
	t := st.tables[s.x-1]
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

// tableInsert puts w into the open-addressing table t whose empty slots
// hold owner, reporting whether it was absent. t must have a free slot.
//
//rept:hotpath
func tableInsert(t []NodeID, owner, w NodeID) bool {
	mask := uint32(len(t) - 1)
	for i := mix32(uint32(w)) & mask; ; i = (i + 1) & mask {
		switch t[i] {
		case w:
			return false
		case owner:
			t[i] = w
			return true
		}
	}
}

// add inserts w, reporting whether it was absent. Inserting the owner
// itself is rejected (self-loops never reach the set, and the owner id is
// the table-mode empty sentinel). The capacity transitions live in the
// cold retable; the steady-state body allocates nothing.
//
//rept:hotpath
func (s *nset) add(st *sideStore, owner, w NodeID) bool {
	if w == owner {
		return false
	}
	if s.x == 0 {
		for _, y := range s.inl[:s.n] {
			if y == w {
				return false
			}
		}
		if s.n < inlineCap {
			s.inl[s.n] = w
			s.n++
			return true
		}
		s.retable(st, owner, minTable)
	}
	t := st.tables[s.x-1]
	if int(s.n) >= len(t)*3/4 {
		t = s.retable(st, owner, len(t)*2)
	}
	if !tableInsert(t, owner, w) {
		return false
	}
	s.n++
	return true
}

// remove deletes w, reporting whether it was present. Inline mode moves
// the last neighbor into the hole; table mode uses backward-shift
// deletion, so probe chains stay tombstone-free.
//
//rept:hotpath
func (s *nset) remove(st *sideStore, owner, w NodeID) bool {
	if w == owner {
		return false
	}
	if s.x == 0 {
		for i, y := range s.inl[:s.n] {
			if y == w {
				s.n--
				s.inl[i] = s.inl[s.n]
				return true
			}
		}
		return false
	}
	t := st.tables[s.x-1]
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

// retable moves the set's neighbors — the inline ones, or a full table's
// — into a fresh table of size slots (a power of two) and returns it. It
// is add's one capacity transition, kept as a separate cold function so
// add itself stays allocation-free under the //rept:hotpath gate. An
// inline set takes a side-store index; a table keeps its own.
func (s *nset) retable(st *sideStore, owner NodeID, size int) []NodeID {
	old := s.slots(st)
	if s.x == 0 {
		s.x = st.take() + 1
	}
	st.slots += size - len(st.tables[s.x-1])
	t := make([]NodeID, size)
	for i := range t {
		t[i] = owner
	}
	for _, w := range old {
		if w != owner {
			tableInsert(t, owner, w)
		}
	}
	st.tables[s.x-1] = t
	return t
}
