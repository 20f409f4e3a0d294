package graph

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAdjacencyBasics(t *testing.T) {
	a := NewAdjacency()
	if !a.Add(1, 2) {
		t.Fatal("Add(1,2) = false, want true")
	}
	if a.Add(2, 1) {
		t.Error("Add(2,1) after Add(1,2) = true, want false (duplicate)")
	}
	if a.Add(3, 3) {
		t.Error("Add(3,3) = true, want false (self-loop)")
	}
	if !a.Has(2, 1) {
		t.Error("Has(2,1) = false, want true")
	}
	if a.Edges() != 1 {
		t.Errorf("Edges() = %d, want 1", a.Edges())
	}
	if a.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2", a.Nodes())
	}
	if a.Degree(1) != 1 || a.Degree(2) != 1 || a.Degree(99) != 0 {
		t.Error("unexpected degrees")
	}
}

func TestAdjacencyRemove(t *testing.T) {
	a := NewAdjacency()
	a.Add(1, 2)
	a.Add(1, 3)
	if !a.Remove(2, 1) {
		t.Fatal("Remove(2,1) = false, want true")
	}
	if a.Remove(1, 2) {
		t.Error("second Remove(1,2) = true, want false")
	}
	if a.Has(1, 2) {
		t.Error("edge still present after Remove")
	}
	if a.Edges() != 1 {
		t.Errorf("Edges() = %d, want 1", a.Edges())
	}
	if a.Nodes() != 2 { // node 2 dropped, nodes 1 and 3 remain
		t.Errorf("Nodes() = %d, want 2", a.Nodes())
	}
}

func TestAdjacencyCommonNeighbors(t *testing.T) {
	a := NewAdjacency()
	// Wheel: 0 connected to 1..4, plus rim edges 1-2, 2-3.
	for _, e := range []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {2, 3}} {
		a.Add(e.U, e.V)
	}
	got := a.CommonNeighbors(1, 3, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []NodeID{0, 2}
	if len(got) != len(want) {
		t.Fatalf("CommonNeighbors(1,3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommonNeighbors(1,3) = %v, want %v", got, want)
		}
	}
	if n := a.CommonCount(1, 3); n != 2 {
		t.Errorf("CommonCount(1,3) = %d, want 2", n)
	}
	if n := a.CommonCount(1, 4); n != 1 { // only the hub
		t.Errorf("CommonCount(1,4) = %d, want 1", n)
	}
}

// TestAdjacencyMatchesNaive cross-checks Add/Remove/Has/CommonCount against
// a naive edge-set model under a random operation sequence.
func TestAdjacencyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a := NewAdjacency()
	naive := make(map[uint64]struct{})
	const nodes = 12
	for i := 0; i < 4000; i++ {
		u := NodeID(rng.IntN(nodes))
		v := NodeID(rng.IntN(nodes))
		switch rng.IntN(3) {
		case 0, 1: // add twice as often as remove
			got := a.Add(u, v)
			want := false
			if u != v {
				if _, ok := naive[Key(u, v)]; !ok {
					naive[Key(u, v)] = struct{}{}
					want = true
				}
			}
			if got != want {
				t.Fatalf("op %d: Add(%d,%d) = %v, want %v", i, u, v, got, want)
			}
		case 2:
			got := a.Remove(u, v)
			_, want := naive[Key(u, v)]
			delete(naive, Key(u, v))
			if got != want {
				t.Fatalf("op %d: Remove(%d,%d) = %v, want %v", i, u, v, got, want)
			}
		}
		if a.Edges() != len(naive) {
			t.Fatalf("op %d: Edges() = %d, want %d", i, a.Edges(), len(naive))
		}
	}
	// Common-neighbor counts against naive computation.
	for u := NodeID(0); u < nodes; u++ {
		for v := u + 1; v < nodes; v++ {
			want := 0
			for w := NodeID(0); w < nodes; w++ {
				if w == u || w == v {
					continue
				}
				_, a1 := naive[Key(u, w)]
				_, a2 := naive[Key(v, w)]
				if a1 && a2 {
					want++
				}
			}
			if got := a.CommonCount(u, v); got != want {
				t.Fatalf("CommonCount(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

// TestAdjacencyMatchesNaiveHighDegree drives the same cross-check across
// the inline → table → grown table transitions: a few hub nodes
// accumulate hundreds of neighbors (open-addressing mode, including
// backward-shift deletions and table growth) while most stay tiny.
func TestAdjacencyMatchesNaiveHighDegree(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 37))
	a := NewAdjacency()
	naive := make(map[uint64]struct{})
	const hubs = 3
	const nodes = 600
	pick := func() NodeID {
		// Half the endpoints land on a hub, so hub degrees sail past
		// inline capacity and churn inside table mode.
		if rng.IntN(2) == 0 {
			return NodeID(rng.IntN(hubs))
		}
		return NodeID(rng.IntN(nodes))
	}
	for i := 0; i < 60000; i++ {
		u, v := pick(), pick()
		if rng.IntN(5) < 3 {
			got := a.Add(u, v)
			want := false
			if u != v {
				if _, ok := naive[Key(u, v)]; !ok {
					naive[Key(u, v)] = struct{}{}
					want = true
				}
			}
			if got != want {
				t.Fatalf("op %d: Add(%d,%d) = %v, want %v", i, u, v, got, want)
			}
		} else {
			got := a.Remove(u, v)
			_, want := naive[Key(u, v)]
			delete(naive, Key(u, v))
			if got != want {
				t.Fatalf("op %d: Remove(%d,%d) = %v, want %v", i, u, v, got, want)
			}
		}
		if a.Edges() != len(naive) {
			t.Fatalf("op %d: Edges() = %d, want %d", i, a.Edges(), len(naive))
		}
	}
	// Degrees, membership, and node count against the naive model.
	deg := make(map[NodeID]int)
	for k := range naive {
		e := KeyEdge(k)
		deg[e.U]++
		deg[e.V]++
	}
	if a.Nodes() != len(deg) {
		t.Fatalf("Nodes() = %d, want %d", a.Nodes(), len(deg))
	}
	for v, d := range deg {
		if a.Degree(v) != d {
			t.Fatalf("Degree(%d) = %d, want %d", v, a.Degree(v), d)
		}
	}
	// Spot-check intersections along every layout pairing (hub-hub is
	// table-table, hub-leaf table-inline, leaf-leaf mostly inline-inline).
	var dst []NodeID
	for u := NodeID(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			want := 0
			for w := range deg {
				if w == u || w == v {
					continue
				}
				_, a1 := naive[Key(u, w)]
				_, a2 := naive[Key(v, w)]
				if a1 && a2 {
					want++
				}
			}
			if got := a.CommonCount(u, v); got != want {
				t.Fatalf("CommonCount(%d,%d) = %d, want %d", u, v, got, want)
			}
			dst = a.CommonNeighbors(u, v, dst[:0])
			if len(dst) != want {
				t.Fatalf("len(CommonNeighbors(%d,%d)) = %d, want %d", u, v, len(dst), want)
			}
			seen := make(map[NodeID]bool, len(dst))
			for _, w := range dst {
				if seen[w] || !a.Has(u, w) || !a.Has(v, w) {
					t.Fatalf("CommonNeighbors(%d,%d) returned bad/dup node %d", u, v, w)
				}
				seen[w] = true
			}
		}
	}
	// AppendEdges exports exactly the live set, canonically oriented.
	edges := a.AppendEdges(nil)
	if len(edges) != len(naive) {
		t.Fatalf("AppendEdges returned %d edges, want %d", len(edges), len(naive))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatalf("AppendEdges returned non-canonical edge %v", e)
		}
		if _, ok := naive[e.Key()]; !ok {
			t.Fatalf("AppendEdges returned dead edge %v", e)
		}
	}
}

// TestAdjacencyExtremeNodeIDs exercises the in-band sentinels: node 0 and
// node ^uint32(0) must work as both set owners and neighbors, including
// inside open-addressing tables (where the owner id marks empty slots).
func TestAdjacencyExtremeNodeIDs(t *testing.T) {
	a := NewAdjacency()
	lo, hi := NodeID(0), ^NodeID(0)
	if !a.Add(lo, hi) {
		t.Fatal("Add(0, max) = false")
	}
	// Push both extremes into grown tables.
	const deg = 36
	for w := NodeID(1); w <= deg; w++ {
		if !a.Add(lo, w) || !a.Add(hi, w) {
			t.Fatalf("Add failed at w=%d", w)
		}
	}
	if !a.Has(lo, hi) || !a.Has(hi, lo) {
		t.Fatal("extreme edge lost in table mode")
	}
	if got := a.CommonCount(lo, hi); got != deg {
		t.Fatalf("CommonCount(0, max) = %d, want %d", got, deg)
	}
	if !a.Remove(lo, hi) || a.Has(lo, hi) {
		t.Fatal("Remove(0, max) failed")
	}
	if a.Degree(lo) != deg || a.Degree(hi) != deg {
		t.Fatalf("degrees = (%d, %d), want %d", a.Degree(lo), a.Degree(hi), deg)
	}
}

// FuzzAdjacency drives an Adjacency with fuzz bytes, three per
// operation: an opcode and two endpoints among 64 nodes. Three in eight
// endpoint bytes name one of two hubs, node 0 and node ^0 (the extremes
// of the owner sentinel), so hub sets cross inline → table → grown table
// and shrink back to empty. Every result is compared with a map-of-sets
// reference, and after every operation both endpoints' neighbor sets and
// the store's Bytes, against a walk over its tables (see walkedBytes),
// are checked too.
func FuzzAdjacency(f *testing.F) {
	// A hub gains 62 leaves, one at a time, then loses them all.
	var grow, shrink []byte
	for i := byte(0); i < 62; i++ {
		grow = append(grow, 0, 0, 96+i)
		shrink = append(shrink, 4, 0, 96+i)
	}
	f.Add(grow)
	f.Add(append(grow, shrink...))
	f.Add([]byte{0, 0, 50, 0, 0, 96, 0, 50, 96, 6, 0, 50, 7, 96, 0, 5, 96, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAdjacency()
		ref := map[NodeID]map[NodeID]bool{}
		edges := 0
		node := func(b byte) NodeID {
			switch {
			case b < 48:
				return 0
			case b < 96:
				return ^NodeID(0)
			}
			return NodeID(2 + int(b-96)%62)
		}
		link := func(u, v NodeID) {
			if ref[u] == nil {
				ref[u] = map[NodeID]bool{}
			}
			ref[u][v] = true
		}
		unlink := func(u, v NodeID) {
			if delete(ref[u], v); len(ref[u]) == 0 {
				delete(ref, u)
			}
		}
		sorted := func(m map[NodeID]bool) []NodeID {
			out := make([]NodeID, 0, len(m))
			for w := range m {
				out = append(out, w)
			}
			slices.Sort(out)
			return out
		}
		var dst []NodeID
		checkNode := func(op int, x NodeID) {
			t.Helper()
			var got []NodeID
			a.Neighbors(x, func(w NodeID) { got = append(got, w) })
			slices.Sort(got)
			if want := sorted(ref[x]); a.Degree(x) != len(want) || !slices.Equal(got, want) {
				t.Fatalf("op %d: node %d has degree %d and neighbors %v, want %v", op, x, a.Degree(x), got, want)
			}
		}
		for op := 0; len(data) >= 3; op, data = op+1, data[3:] {
			u, v := node(data[1]), node(data[2])
			switch code := data[0] % 8; {
			case code < 4:
				want := u != v && !ref[u][v]
				if got := a.Add(u, v); got != want {
					t.Fatalf("op %d: Add(%d, %d) = %v, want %v", op, u, v, got, want)
				}
				if want {
					link(u, v)
					link(v, u)
					edges++
				}
			case code < 6:
				want := ref[u][v]
				if got := a.Remove(u, v); got != want {
					t.Fatalf("op %d: Remove(%d, %d) = %v, want %v", op, u, v, got, want)
				}
				if want {
					unlink(u, v)
					unlink(v, u)
					edges--
				}
			case code == 6:
				common := map[NodeID]bool{}
				for w := range ref[u] {
					if ref[v][w] {
						common[w] = true
					}
				}
				want := sorted(common)
				dst = a.CommonNeighbors(u, v, dst[:0])
				slices.Sort(dst)
				if !slices.Equal(dst, want) || a.CommonCount(u, v) != len(want) {
					t.Fatalf("op %d: CommonNeighbors(%d, %d) = %v, CommonCount %d, want %v", op, u, v, dst, a.CommonCount(u, v), want)
				}
			default:
				if got := a.Has(u, v); got != ref[u][v] {
					t.Fatalf("op %d: Has(%d, %d) = %v, want %v", op, u, v, got, ref[u][v])
				}
			}
			checkNode(op, u)
			checkNode(op, v)
			if a.Edges() != edges || a.Nodes() != len(ref) {
				t.Fatalf("op %d: %d edges on %d nodes, want %d on %d", op, a.Edges(), a.Nodes(), edges, len(ref))
			}
			if got, want := a.sets.Bytes(), walkedBytes(&a.sets); got != want {
				t.Fatalf("op %d: neighbor sets report %d bytes, a walk over their tables %d", op, got, want)
			}
		}
	})
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(u, v uint32) bool {
		e := Edge{NodeID(u), NodeID(v)}
		k := e.Key()
		back := KeyEdge(k)
		canon := e.Canonical()
		return back == canon && k == Edge{NodeID(v), NodeID(u)}.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyInjective(t *testing.T) {
	f := func(u1, v1, u2, v2 uint32) bool {
		k1 := Key(NodeID(u1), NodeID(v1))
		k2 := Key(NodeID(u2), NodeID(v2))
		c1 := Edge{NodeID(u1), NodeID(v1)}.Canonical()
		c2 := Edge{NodeID(u2), NodeID(v2)}.Canonical()
		return (k1 == k2) == (c1 == c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
