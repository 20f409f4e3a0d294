package graph

import (
	"unsafe"

	"rept/internal/mem"
)

// nsetBytes is the arena cost of one neighbor-set entry (the degree, the
// layout word and the inline neighbors; side-store slices are accounted
// separately at their own growth transitions).
const nsetBytes = int64(unsafe.Sizeof(nset{}))

// sideEntryBytes is the cost of one side-store entry: a slice header.
const sideEntryBytes = int64(unsafe.Sizeof([]NodeID(nil)))

// Adjacency is a dynamic undirected adjacency structure supporting edge
// insertion, removal (needed by reservoir-based samplers and fully-dynamic
// streams) and common-neighbor enumeration in O(min(deg u, deg v))
// expected time.
//
// Storage is flat and cache-friendly: an open-addressing node index maps
// each live node to a slot in an arena of 32-byte, pointer-free neighbor
// sets. A set keeps up to inlineCap neighbors in its arena entry; larger
// sets live in a side store as a sorted NodeID slice, promoted to an
// open-addressing set past promoteDeg neighbors (see nbrset.go). Released
// arena slots and side-store entries are recycled through free lists, so
// steady-state churn (delete + re-insert over a stable node universe)
// allocates nothing.
//
// The zero value is not usable; call NewAdjacency.
type Adjacency struct {
	idx   nodeIndex
	sets  []nset
	freed []int32
	side  sideStore
	edges int
	// ac is the optional byte ledger (nil: unaccounted). It is consulted
	// only at capacity transitions — arena growth, index rehash, spill/
	// promote/grow, side-store growth — never per event.
	ac *mem.Accountant
}

// NewAdjacency returns an empty adjacency structure.
func NewAdjacency() *Adjacency {
	return &Adjacency{}
}

// SetAccountant attaches the byte ledger. Call it right after
// construction, before any edges are added, or the ledger misses the
// capacity that already exists.
func (a *Adjacency) SetAccountant(ac *mem.Accountant) { a.ac = ac }

// slot returns the arena slot for a new node, recycling freed slots.
func (a *Adjacency) slot(u NodeID) int32 {
	var si int32
	if n := len(a.freed); n > 0 {
		si = a.freed[n-1]
		a.freed = a.freed[:n-1]
	} else {
		si = int32(len(a.sets))
		appendCharged(&a.sets, nset{}, nsetBytes, a.ac)
	}
	a.idx.put(u, si, a.ac)
	return si
}

// release drops a node whose last neighbor was removed.
func (a *Adjacency) release(u NodeID, si int32) {
	a.sets[si].reset(&a.side, a.ac)
	a.idx.del(u)
	appendCharged(&a.freed, si, 4, a.ac)
}

// Add inserts the undirected edge {u, v}. It returns false (and does
// nothing) for self-loops and edges already present. Arena growth lives
// in slot; the steady-state body allocates nothing.
//
//rept:hotpath
func (a *Adjacency) Add(u, v NodeID) bool {
	added, _, _ := a.AddReport(u, v)
	return added
}

// AddReport is Add that additionally reports which endpoints entered the
// structure with this edge (had no incident edge before). Presence
// transitions are what the engine's processor-mask table is maintained
// from, and detecting them here is free — slot assignment already knows.
//
//rept:hotpath
func (a *Adjacency) AddReport(u, v NodeID) (added, newU, newV bool) {
	if u == v {
		return false, false, false
	}
	si := a.idx.get(u)
	if si < 0 {
		si = a.slot(u)
		a.sets[si].add(&a.side, u, v, a.ac)
		newU = true
	} else if !a.sets[si].add(&a.side, u, v, a.ac) {
		return false, false, false
	}
	sj := a.idx.get(v)
	if sj < 0 {
		sj = a.slot(v)
		newV = true
	}
	a.sets[sj].add(&a.side, v, u, a.ac)
	a.edges++
	return true, newU, newV
}

// Remove deletes the undirected edge {u, v}, reporting whether it existed.
// Nodes left with no incident edges are dropped from the structure.
//
//rept:hotpath
func (a *Adjacency) Remove(u, v NodeID) bool {
	removed, _, _ := a.RemoveReport(u, v)
	return removed
}

// RemoveReport is Remove that additionally reports which endpoints left
// the structure with this edge (lost their last incident edge) — the
// counterpart of AddReport for presence-mask maintenance.
//
//rept:hotpath
func (a *Adjacency) RemoveReport(u, v NodeID) (removed, goneU, goneV bool) {
	if u == v {
		return false, false, false
	}
	si := a.idx.get(u)
	if si < 0 || !a.sets[si].remove(&a.side, u, v) {
		return false, false, false
	}
	sj := a.idx.get(v)
	a.sets[sj].remove(&a.side, v, u)
	a.edges--
	if a.sets[si].deg() == 0 {
		a.release(u, si)
		goneU = true
	}
	if a.sets[sj].deg() == 0 {
		a.release(v, sj)
		goneV = true
	}
	return true, goneU, goneV
}

// Has reports whether the undirected edge {u, v} is present.
//
//rept:hotpath
func (a *Adjacency) Has(u, v NodeID) bool {
	si := a.idx.get(u)
	return si >= 0 && a.sets[si].has(&a.side, u, v)
}

// Degree returns the number of neighbors of u.
func (a *Adjacency) Degree(u NodeID) int {
	si := a.idx.get(u)
	if si < 0 {
		return 0
	}
	return a.sets[si].deg()
}

// Edges returns the number of edges currently stored.
func (a *Adjacency) Edges() int { return a.edges }

// Nodes returns the number of nodes with at least one incident edge.
func (a *Adjacency) Nodes() int { return a.idx.n }

// Neighbors calls fn for every neighbor of u, in unspecified order.
func (a *Adjacency) Neighbors(u NodeID, fn func(w NodeID)) {
	si := a.idx.get(u)
	if si >= 0 {
		a.sets[si].each(&a.side, u, fn)
	}
}

// EachNode calls fn for every node with at least one incident edge, in
// unspecified order. It is the mask-rebuild walk used after a snapshot
// restore, where edges are loaded without going through AddReport.
func (a *Adjacency) EachNode(fn func(u NodeID)) {
	a.idx.each(func(u NodeID, _ int32) { fn(u) })
}

// AppendEdges appends every stored edge to dst exactly once, in canonical
// orientation (U < V) and unspecified order, and returns the extended
// slice. It is the export path used by the snapshot subsystem.
func (a *Adjacency) AppendEdges(dst []Edge) []Edge {
	a.idx.each(func(u NodeID, si int32) {
		a.sets[si].each(&a.side, u, func(v NodeID) {
			if u < v {
				dst = append(dst, Edge{U: u, V: v})
			}
		})
	})
	return dst
}

// CommonNeighbors appends every node adjacent to both u and v to dst and
// returns the extended slice: a merge walk when both neighborhoods are
// small sorted slices, otherwise enumerate-the-smaller probe-the-larger,
// so the cost is O(min(deg u, deg v)) expected. Passing a reusable dst[:0]
// avoids per-call allocation.
//
//rept:hotpath
func (a *Adjacency) CommonNeighbors(u, v NodeID, dst []NodeID) []NodeID {
	si := a.idx.get(u)
	if si < 0 {
		return dst
	}
	sj := a.idx.get(v)
	if sj < 0 {
		return dst
	}
	return intersect(&a.side, &a.sets[si], u, &a.sets[sj], v, dst)
}

// footprint returns the bytes currently on the ledger for this structure,
// recomputed from capacities. It mirrors the incremental charge sites
// exactly: the arena, the side store's headers and both free lists by
// capacity, the node index by table length, and every side-store slice by
// capacity (a promoted table's capacity is its length; a released spill
// slice keeps its capacity on the free list, so it counts too).
func (a *Adjacency) footprint() int64 {
	b := int64(cap(a.sets))*nsetBytes +
		int64(cap(a.freed))*4 +
		int64(len(a.idx.ents))*idxEntryBytes +
		int64(cap(a.side.bufs))*sideEntryBytes +
		int64(cap(a.side.free))*4
	for _, buf := range a.side.bufs {
		b += int64(cap(buf)) * nodeIDBytes
	}
	return b
}

// Compact rebuilds the structure into right-sized backing storage: a fresh
// arena with no freed slots, a node index sized for the current node
// count, and per-node sets holding exactly their surviving neighbors. It
// exists for the moment after a bulk eviction (Engine.Downsample thins the
// sample 2^extra-fold) when the retained capacities — arena slack, spill
// slices, oversized promoted tables — no longer reflect the contents;
// without it, downsampling would shed sample state while the ledger (and
// the process) kept every byte. The rebuild is deterministic in the
// current contents and O(edges); callers pay it only at adaptation events,
// never per stream event.
func (a *Adjacency) Compact() {
	edges := a.AppendEdges(make([]Edge, 0, a.edges))
	a.ac.Add(mem.CompAdjacency, -a.footprint())
	a.idx = nodeIndex{}
	a.sets = nil
	a.freed = nil
	a.side = sideStore{}
	a.edges = 0
	for _, e := range edges {
		a.Add(e.U, e.V)
	}
}

// CommonCount returns |N(u) ∩ N(v)| without materializing the
// intersection — the counting-only hot path of proc.processEdge.
//
//rept:hotpath
func (a *Adjacency) CommonCount(u, v NodeID) int {
	si := a.idx.get(u)
	if si < 0 {
		return 0
	}
	sj := a.idx.get(v)
	if sj < 0 {
		return 0
	}
	return intersectCount(&a.side, &a.sets[si], u, &a.sets[sj], v)
}
