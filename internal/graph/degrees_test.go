package graph

import "testing"

func TestDegreeTableBasics(t *testing.T) {
	dt := NewDegreeTable()
	dt.AddEdge(1, 2)
	dt.AddEdge(2, 3)
	dt.AddEdge(7, 7) // self-loop ignored
	if got := dt.Degree(2); got != 2 {
		t.Errorf("Degree(2) = %d, want 2", got)
	}
	if got := dt.Degree(1); got != 1 {
		t.Errorf("Degree(1) = %d, want 1", got)
	}
	if got := dt.Degree(7); got != 0 {
		t.Errorf("Degree(7) = %d, want 0 (self-loop)", got)
	}
	if got := dt.Degree(99); got != 0 {
		t.Errorf("Degree(99) = %d, want 0 (unseen)", got)
	}
	if got := dt.Nodes(); got != 3 {
		t.Errorf("Nodes() = %d, want 3", got)
	}
}

// TestDegreeTableMatchesAdjacency: on a duplicate-free stream, arrival
// degrees equal graph degrees.
func TestDegreeTableMatchesAdjacency(t *testing.T) {
	adj := NewAdjacency()
	dt := NewDegreeTable()
	edges := []Edge{{1, 2}, {2, 3}, {3, 1}, {4, 1}, {5, 1}, {2, 5}}
	for _, e := range edges {
		adj.Add(e.U, e.V)
		dt.AddEdge(e.U, e.V)
	}
	for v := NodeID(1); v <= 5; v++ {
		if got, want := int(dt.Degree(v)), adj.Degree(v); got != want {
			t.Errorf("node %d: table degree %d, adjacency degree %d", v, got, want)
		}
	}
}

func TestDegreeTableSnapshotIsIndependent(t *testing.T) {
	dt := NewDegreeTable()
	dt.AddEdge(1, 2)
	snap := dt.Counts()
	dt.AddEdge(1, 3)
	if snap.Degree(1) != 1 || snap.Map()[1] != 1 {
		t.Errorf("snapshot mutated by later AddEdge: deg(1) = %d, want 1", snap.Degree(1))
	}
	if dt.Degree(1) != 2 {
		t.Errorf("live table degree(1) = %d, want 2", dt.Degree(1))
	}
}

func TestRestoreDegreeTable(t *testing.T) {
	dt := RestoreDegreeTable(map[NodeID]uint32{4: 7})
	dt.AddEdge(4, 5)
	if got := dt.Degree(4); got != 8 {
		t.Errorf("restored degree(4) = %d, want 8", got)
	}
	if nil2 := RestoreDegreeTable(nil); nil2.Degree(1) != 0 || nil2.Nodes() != 0 {
		t.Error("RestoreDegreeTable(nil) is not an empty usable table")
	}
}

func TestDegreeTableRemoveEdge(t *testing.T) {
	dt := NewDegreeTable()
	dt.AddEdge(1, 2)
	dt.AddEdge(1, 3)
	dt.RemoveEdge(1, 2)
	if dt.Degree(1) != 1 || dt.Degree(2) != 0 {
		t.Errorf("degrees after removal = (%d, %d), want (1, 0)", dt.Degree(1), dt.Degree(2))
	}
	if dt.Nodes() != 2 { // node 2 dropped at zero, 1 and 3 remain
		t.Errorf("Nodes = %d, want 2", dt.Nodes())
	}
	// Phantom deletes are no-ops: removing an edge that was never added
	// (or already removed) must not touch any degree — in particular the
	// repeated RemoveEdge(1, 2) must not steal degree mass from the still
	// live edge {1, 3}.
	dt.RemoveEdge(7, 8)
	dt.RemoveEdge(1, 2)
	if dt.Degree(1) != 1 || dt.Degree(7) != 0 {
		t.Errorf("degrees after malformed removals = (%d, %d), want (1, 0)", dt.Degree(1), dt.Degree(7))
	}
	// Self-loops are ignored on removal as on insertion.
	dt.RemoveEdge(3, 3)
	if dt.Degree(3) != 1 {
		t.Errorf("degree(3) after self-loop removal = %d, want 1", dt.Degree(3))
	}
	// Saturated nodes stay saturated rather than becoming wrong.
	sat := RestoreDegreeTable(map[NodeID]uint32{9: ^uint32(0)})
	sat.RemoveEdge(9, 10)
	if sat.Degree(9) != ^uint32(0) {
		t.Errorf("saturated degree decremented to %d", sat.Degree(9))
	}
}

// TestDegreeTableDuplicateInsert: re-inserting a live edge must not
// inflate degrees — the table dedupes exactly like Adjacency.Add, so the
// clustering-coefficient denominator stays consistent with the sampled
// numerator.
func TestDegreeTableDuplicateInsert(t *testing.T) {
	dt := NewDegreeTable()
	adj := NewAdjacency()
	events := []Edge{{1, 2}, {2, 1}, {1, 2}, {2, 3}, {2, 3}, {1, 3}}
	for _, e := range events {
		dt.AddEdge(e.U, e.V)
		adj.Add(e.U, e.V)
	}
	for v := NodeID(1); v <= 3; v++ {
		if got, want := int(dt.Degree(v)), adj.Degree(v); got != want {
			t.Errorf("node %d: degree %d after duplicates, adjacency says %d", v, got, want)
		}
	}
	if dt.Edges() != 3 {
		t.Errorf("Edges() = %d, want 3 distinct live edges", dt.Edges())
	}
	// Delete then re-insert counts again (it is a new live edge).
	dt.RemoveEdge(1, 2)
	dt.AddEdge(1, 2)
	if dt.Degree(1) != 2 || dt.Degree(2) != 2 {
		t.Errorf("degrees after delete+reinsert = (%d, %d), want (2, 2)", dt.Degree(1), dt.Degree(2))
	}
}

// TestDegreeTableRestoredLegacyDeletes: a table restored from a bare
// degree map (no membership set) must still honor well-formed deletions
// of pre-checkpoint edges, bounded by the restored degree mass, while
// exact filtering applies to post-restore edges.
func TestDegreeTableRestoredLegacyDeletes(t *testing.T) {
	// Pre-checkpoint graph: 1-2, 1-3 (degrees 2, 1, 1); two legacy deletes
	// available.
	dt := RestoreDegreeTable(map[NodeID]uint32{1: 2, 2: 1, 3: 1})
	dt.RemoveEdge(1, 2) // legacy: decrements both
	if dt.Degree(1) != 1 || dt.Degree(2) != 0 {
		t.Fatalf("after legacy delete: degrees (%d, %d), want (1, 0)", dt.Degree(1), dt.Degree(2))
	}
	dt.RemoveEdge(1, 3) // second legacy delete
	if dt.Degree(1) != 0 || dt.Degree(3) != 0 {
		t.Fatalf("after second legacy delete: degrees (%d, %d), want (0, 0)", dt.Degree(1), dt.Degree(3))
	}
	// Legacy budget exhausted: further unknown deletes are pure no-ops.
	dt.AddEdge(4, 5)
	dt.RemoveEdge(4, 6)
	if dt.Degree(4) != 1 || dt.Degree(5) != 1 {
		t.Errorf("post-budget phantom delete changed degrees to (%d, %d)", dt.Degree(4), dt.Degree(5))
	}
	// Post-restore inserts are filtered exactly.
	dt.AddEdge(4, 5)
	if dt.Degree(4) != 1 {
		t.Errorf("duplicate insert after restore inflated degree to %d", dt.Degree(4))
	}
}

func TestDegreeTableApplyUpdate(t *testing.T) {
	dt := NewDegreeTable()
	dt.ApplyUpdate(Update{U: 1, V: 2})
	dt.ApplyUpdate(Update{U: 1, V: 3})
	dt.ApplyUpdate(Update{U: 1, V: 2, Del: true})
	if dt.Degree(1) != 1 || dt.Degree(2) != 0 || dt.Degree(3) != 1 {
		t.Errorf("degrees = (%d, %d, %d), want (1, 0, 1)", dt.Degree(1), dt.Degree(2), dt.Degree(3))
	}
}
