package graph

import "testing"

// TestAdjacencyAddSteadyStateZeroAlloc gates the flat-adjacency design's
// core claim: once capacity exists, edge churn — including removals that
// release a node and re-insertions that recycle its arena slot — costs
// zero allocations.
func TestAdjacencyAddSteadyStateZeroAlloc(t *testing.T) {
	a := NewAdjacency()
	// A hub whose table has grown plus a fringe of small nodes.
	const hubDeg = 40
	for w := NodeID(1); w <= hubDeg; w++ {
		a.Add(0, w)
		a.Add(w, w+1)
	}
	allocs := testing.AllocsPerRun(500, func() {
		// Churn a hub edge (table) and a leaf edge (inline set).
		a.Remove(0, 5)
		a.Add(0, 5)
		a.Remove(7, 8)
		a.Add(7, 8)
		// Degree-zero release and slot recycle: 200-201 exists only here.
		a.Add(200, 201)
		a.Remove(200, 201)
		// Duplicate insert of a live edge is a no-op.
		a.Add(0, 6)
	})
	if allocs != 0 {
		t.Errorf("steady-state Add/Remove churn allocates %.1f per round, want 0", allocs)
	}
}

// TestCommonNeighborsZeroAlloc: intersections with a reused destination
// slice must not allocate, across all three layout pairings.
func TestCommonNeighborsZeroAlloc(t *testing.T) {
	a := NewAdjacency()
	// Hubs 0 and 1 share grown tables; 2 and 3 stay inline.
	const hubDeg = 64
	for w := NodeID(4); w < 4+hubDeg; w++ {
		a.Add(0, w)
		a.Add(1, w)
	}
	a.Add(2, 4)
	a.Add(2, 5)
	a.Add(3, 4)
	a.Add(3, 6)
	dst := make([]NodeID, 0, hubDeg)
	allocs := testing.AllocsPerRun(500, func() {
		dst = a.CommonNeighbors(0, 1, dst[:0]) // table × table
		dst = a.CommonNeighbors(0, 2, dst[:0]) // table × inline
		dst = a.CommonNeighbors(2, 3, dst[:0]) // inline × inline
		dst = a.CommonNeighbors(9, 2, dst[:0]) // absent node
	})
	if allocs != 0 {
		t.Errorf("CommonNeighbors with reused dst allocates %.1f per round, want 0", allocs)
	}
}
