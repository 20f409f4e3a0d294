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

// restored rebuilds a table from orig's checkpointed form, the way a
// snapshot restore does: AddEdge on each of its live edges.
func restored(orig *DegreeTable) *DegreeTable {
	dt := NewDegreeTable()
	for _, e := range orig.LiveEdges() {
		dt.AddEdge(e.U, e.V)
	}
	return dt
}

// TestRestoreDegreeTable: a table rebuilt from another's LiveEdges has
// the same live edges and degrees.
func TestRestoreDegreeTable(t *testing.T) {
	orig := NewDegreeTable()
	for _, e := range []Edge{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}} {
		orig.AddEdge(e.U, e.V)
	}
	orig.RemoveEdge(4, 5)
	dt := restored(orig)
	if dt.Edges() != 4 || dt.Nodes() != orig.Nodes() {
		t.Fatalf("restored table has %d edges over %d nodes, want 4 over %d", dt.Edges(), dt.Nodes(), orig.Nodes())
	}
	for v := NodeID(0); v <= 6; v++ {
		if got, want := dt.Degree(v), orig.Degree(v); got != want {
			t.Errorf("node %d: restored degree %d, original %d", v, got, want)
		}
	}
	if empty := restored(NewDegreeTable()); empty.Edges() != 0 || empty.Nodes() != 0 {
		t.Error("restoring an empty table is not empty")
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
	sat := NewDegreeTable()
	sat.AddEdge(9, 10)
	*sat.deg.ref(9) = degMax
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

// TestDegreeTableRestoredLegacyDeletes: a restored table honors
// deletions of edges inserted before the checkpoint exactly, and filters
// phantom deletes and re-sent insertions exactly like the table that was
// checkpointed.
func TestDegreeTableRestoredLegacyDeletes(t *testing.T) {
	// Pre-checkpoint graph: 1-2, 1-3 (degrees 2, 1, 1).
	orig := NewDegreeTable()
	orig.AddEdge(1, 2)
	orig.AddEdge(1, 3)
	dt := restored(orig)
	events := []Update{
		{U: 2, V: 1, Del: true}, // pre-checkpoint edge: counts
		{U: 1, V: 4, Del: true}, // never inserted: no-op
		{U: 3, V: 1},            // re-sent live edge: no-op
		{U: 1, V: 2, Del: true}, // already deleted: no-op
	}
	for _, up := range events {
		orig.ApplyUpdate(up)
		dt.ApplyUpdate(up)
	}
	if dt.Degree(1) != 1 || dt.Degree(2) != 0 || dt.Degree(3) != 1 || dt.Edges() != 1 {
		t.Fatalf("restored degrees (%d, %d, %d) over %d edges, want (1, 0, 1) over 1",
			dt.Degree(1), dt.Degree(2), dt.Degree(3), dt.Edges())
	}
	for v := NodeID(1); v <= 4; v++ {
		if dt.Degree(v) != orig.Degree(v) {
			t.Errorf("node %d: restored degree %d, never-restarted %d", v, dt.Degree(v), orig.Degree(v))
		}
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
