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
// expected time. It serves the baselines, exact counting and the
// benchmark harness; the engine's processors drive NeighborSets directly
// behind the engine's own node dictionary.
//
// Storage is flat and cache-friendly: a NodeTable[int32] maps each live
// node to its slot in a NeighborSets arena of 32-byte, pointer-free
// neighbor sets (see nbrset.go). A node leaves the index with its last
// neighbor, and its slot is recycled, so steady-state churn (delete +
// re-insert over a stable node universe) allocates nothing.
//
// The zero value is not usable; call NewAdjacency.
type Adjacency struct {
	idx   NodeTable[int32]
	sets  NeighborSets
	edges int
}

// NewAdjacency returns an empty adjacency structure.
func NewAdjacency() *Adjacency {
	return &Adjacency{}
}

// SetAccountant attaches the byte ledger, charged under
// mem.CompAdjacency at capacity transitions only — index rehash, arena
// growth, spill/promote/grow, side-store growth — never per event. Call
// it right after construction, before any edges are added, or the ledger
// misses the capacity that already exists.
func (a *Adjacency) SetAccountant(ac *mem.Accountant) {
	a.idx.SetAccountant(ac, mem.CompAdjacency)
	a.sets.SetAccountant(ac)
}

// slot returns a fresh set slot for a new node u and indexes it.
func (a *Adjacency) slot(u NodeID) int32 {
	si := a.sets.New()
	a.idx.Put(u, si)
	return si
}

// release drops a node whose last neighbor was removed.
func (a *Adjacency) release(u NodeID, si int32) {
	a.sets.Release(si)
	a.idx.Del(u)
}

// Add inserts the undirected edge {u, v}. It returns false (and does
// nothing) for self-loops and edges already present. Arena growth lives
// in slot; the steady-state body allocates nothing.
//
//rept:hotpath
func (a *Adjacency) Add(u, v NodeID) bool {
	if u == v {
		return false
	}
	si := a.idx.Get(u)
	if si == 0 {
		si = a.slot(u)
	}
	if !a.sets.Add(si, u, v) {
		return false
	}
	sj := a.idx.Get(v)
	if sj == 0 {
		sj = a.slot(v)
	}
	a.sets.Add(sj, v, u)
	a.edges++
	return true
}

// Remove deletes the undirected edge {u, v}, reporting whether it existed.
// Nodes left with no incident edges are dropped from the structure.
//
//rept:hotpath
func (a *Adjacency) Remove(u, v NodeID) bool {
	if u == v {
		return false
	}
	si := a.idx.Get(u)
	if si == 0 || !a.sets.Remove(si, u, v) {
		return false
	}
	sj := a.idx.Get(v)
	a.sets.Remove(sj, v, u)
	a.edges--
	if a.sets.Deg(si) == 0 {
		a.release(u, si)
	}
	if a.sets.Deg(sj) == 0 {
		a.release(v, sj)
	}
	return true
}

// Has reports whether the undirected edge {u, v} is present.
//
//rept:hotpath
func (a *Adjacency) Has(u, v NodeID) bool {
	si := a.idx.Get(u)
	return si != 0 && a.sets.sets[si].has(&a.sets.side, u, v)
}

// Degree returns the number of neighbors of u.
func (a *Adjacency) Degree(u NodeID) int {
	if si := a.idx.Get(u); si != 0 {
		return a.sets.Deg(si)
	}
	return 0
}

// Edges returns the number of edges currently stored.
func (a *Adjacency) Edges() int { return a.edges }

// Nodes returns the number of nodes with at least one incident edge.
func (a *Adjacency) Nodes() int { return a.idx.Len() }

// Neighbors calls fn for every neighbor of u, in unspecified order.
func (a *Adjacency) Neighbors(u NodeID, fn func(w NodeID)) {
	if si := a.idx.Get(u); si != 0 {
		a.sets.Each(si, u, fn)
	}
}

// AppendEdges appends every stored edge to dst exactly once, in canonical
// orientation (U < V) and unspecified order, and returns the extended
// slice.
func (a *Adjacency) AppendEdges(dst []Edge) []Edge {
	a.idx.Each(func(u NodeID, si int32) {
		a.sets.Each(si, u, func(v NodeID) {
			if u < v {
				dst = append(dst, Edge{U: u, V: v})
			}
		})
	})
	return dst
}

// CommonNeighbors appends every node adjacent to both u and v to dst and
// returns the extended slice (see NeighborSets.Intersect). Passing a
// reusable dst[:0] avoids per-call allocation.
//
//rept:hotpath
func (a *Adjacency) CommonNeighbors(u, v NodeID, dst []NodeID) []NodeID {
	si, sj := a.idx.Get(u), a.idx.Get(v)
	if si == 0 || sj == 0 {
		return dst
	}
	return a.sets.Intersect(si, u, sj, v, dst)
}

// CommonCount returns |N(u) ∩ N(v)| without materializing the
// intersection.
//
//rept:hotpath
func (a *Adjacency) CommonCount(u, v NodeID) int {
	si, sj := a.idx.Get(u), a.idx.Get(v)
	if si == 0 || sj == 0 {
		return 0
	}
	return a.sets.IntersectCount(si, u, sj, v)
}

// footprint returns the bytes currently on the ledger for this structure,
// recomputed from capacities: the node index by table length plus the
// neighbor-set store (NeighborSets.Bytes).
func (a *Adjacency) footprint() int64 { return a.idx.Bytes() + a.sets.Bytes() }
