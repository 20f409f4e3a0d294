package graph

// DegreeTable tracks per-node degrees of a graph stream: one counter per
// node plus a live-edge membership set, O(V + E) memory, O(1) per event.
//
// Semantics match Adjacency exactly: a duplicate insertion of a live edge
// is a no-op (it used to inflate both endpoint degrees, skewing the
// clustering coefficients derived from them), and a deletion of an edge
// that is not live — a phantom delete from a malformed stream — is a
// no-op too (it used to decrement unrelated degree mass). Degrees
// therefore always equal the degrees of the live graph, the denominator
// the plug-in clustering coefficient needs.
//
// The degrees live in a NodeTable and the live edges in an
// EdgeTable[struct{}], whose values take no space: 8 bytes per slot at up
// to 75% load. The edge membership set costs O(E) memory — unavoidable
// for exact duplicate detection, and acceptable because degree tracking
// is opt-in (shard.Config.TrackDegrees) and hosted by a single tracker
// goroutine, not replicated per processor.
//
// The membership set is the table's whole state: the degrees follow from
// it. A checkpoint therefore persists the live edges (LiveEdges), and a
// restore replays them through AddEdge into a fresh table, which filters
// later events exactly like the table that was checkpointed.
//
// The zero value is not usable; call NewDegreeTable. A DegreeTable is not
// safe for concurrent use; the shard layer confines each table to one
// goroutine.
type DegreeTable struct {
	deg  NodeTable[degcount]
	seen EdgeTable[struct{}]
}

// degcount is a per-node degree counter that clamps at the uint32
// maximum instead of wrapping. All arithmetic on it goes through the
// //rept:sathelper methods bump and drop; satarith reports any raw
// additive operator elsewhere.
//
//rept:satcounter
type degcount uint32

// degMax is the saturation ceiling of degcount.
const degMax = ^degcount(0)

// NewDegreeTable returns an empty degree table.
func NewDegreeTable() *DegreeTable { return &DegreeTable{} }

// AddEdge records one non-loop edge insertion, incrementing both endpoint
// degrees. Self-loops and duplicate insertions of a live edge are
// ignored, matching Adjacency.Add. Degrees saturate at the uint32 maximum
// instead of wrapping.
func (t *DegreeTable) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if !t.seen.Put(Key(u, v), struct{}{}) {
		return
	}
	t.bump(u)
	t.bump(v)
}

// bump increments v's degree, saturating at degMax.
//
//rept:sathelper
func (t *DegreeTable) bump(v NodeID) {
	if d := t.deg.ref(v); *d != degMax {
		*d++
	}
}

// RemoveEdge records one non-loop edge deletion, decrementing both
// endpoint degrees. Nodes whose degree reaches zero are dropped from the
// table. Deletions of edges that are not live — self-loops, phantom
// deletes of never-inserted edges, repeated deletes — are ignored,
// matching Adjacency.Remove, so a malformed stream can never corrupt the
// degrees of live edges' endpoints. A node saturated at the uint32
// maximum stays saturated (the count is already unreliable there).
func (t *DegreeTable) RemoveEdge(u, v NodeID) {
	if u == v {
		return
	}
	if t.seen.Del(Key(u, v)) {
		t.drop(u)
		t.drop(v)
	}
}

// drop decrements v's degree; zero floors and degMax stays saturated.
//
//rept:sathelper
func (t *DegreeTable) drop(v NodeID) {
	switch d := t.deg.Get(v); d {
	case 0, degMax:
		// Zero cannot occur for an endpoint of a live edge; saturated
		// stays untouched.
	case 1:
		t.deg.Del(v)
	default:
		*t.deg.ref(v) = d - 1
	}
}

// ApplyUpdate records one signed edge event.
func (t *DegreeTable) ApplyUpdate(up Update) {
	if up.Del {
		t.RemoveEdge(up.U, up.V)
	} else {
		t.AddEdge(up.U, up.V)
	}
}

// Degree returns the recorded degree of v (0 if never seen).
func (t *DegreeTable) Degree(v NodeID) uint32 { return uint32(t.deg.Get(v)) }

// Nodes returns the number of nodes with non-zero degree.
func (t *DegreeTable) Nodes() int { return t.deg.Len() }

// Edges returns the number of live edges in the membership set.
func (t *DegreeTable) Edges() int { return t.seen.Len() }

// LiveEdges returns a copy of the live-edge membership set in table
// order, the state a checkpoint persists. Calling AddEdge with each
// returned edge on a fresh table reproduces this one exactly (degrees
// below the saturation ceiling are the live-edge counts).
func (t *DegreeTable) LiveEdges() []Edge {
	out := make([]Edge, 0, t.seen.Len())
	t.seen.Each(func(k uint64, _ struct{}) { out = append(out, KeyEdge(k)) })
	return out
}

// FootprintBytes returns the table's backing bytes: the flat degree
// table plus the live-edge membership table. Callers reconcile the
// ledger against it once per batch, off the per-event path.
func (t *DegreeTable) FootprintBytes() int64 {
	return t.deg.Bytes() + t.seen.Bytes()
}

// Counts returns an immutable copy of the degree counters — two slice
// copies, however many nodes there are. The live-edge membership set is
// not copied. It is the per-barrier export that epoch views read.
func (t *DegreeTable) Counts() *DegreeCounts { return &DegreeCounts{t: t.deg.Clone()} }

// DegreeCounts is an immutable copy of a DegreeTable's counters, taken by
// DegreeTable.Counts. Any number of goroutines may read it. A nil
// *DegreeCounts is empty.
type DegreeCounts struct {
	t *NodeTable[degcount]
}

// Degree returns v's degree (0 if absent).
func (c *DegreeCounts) Degree(v NodeID) uint32 {
	if c == nil {
		return 0
	}
	return uint32(c.t.Get(v))
}

// Bytes returns the copy's backing bytes.
func (c *DegreeCounts) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.t.Bytes()
}

// Map exports the counters as a freshly built map the caller owns (nil
// for a nil *DegreeCounts).
func (c *DegreeCounts) Map() map[NodeID]uint32 {
	if c == nil {
		return nil
	}
	out := make(map[NodeID]uint32, c.t.Len())
	c.t.Each(func(v NodeID, d degcount) { out[v] = uint32(d) })
	return out
}
