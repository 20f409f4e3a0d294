package snapshot

import (
	"bytes"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"rept/internal/graph"
)

// randNode draws a node id over the whole uint32 range, hitting the
// range's ends and middle often.
func randNode(rng *rand.Rand) graph.NodeID {
	switch rng.IntN(8) {
	case 0:
		return 0
	case 1:
		return 1 << 31
	case 2:
		return math.MaxUint32
	default:
		return graph.NodeID(rng.Uint32())
	}
}

// randEdges returns n distinct non-loop edges with endpoints drawn by
// node, each in a random orientation.
func randEdges(rng *rand.Rand, n int, node func() graph.NodeID) []graph.Edge {
	seen := make(map[uint64]bool, n)
	out := make([]graph.Edge, 0, n)
	for len(out) < n {
		e := graph.Edge{U: node(), V: node()}
		if e.U == e.V || seen[e.Key()] {
			continue
		}
		seen[e.Key()] = true
		if rng.IntN(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	return out
}

// sortedCanonical returns edges canonical and sorted by key.
func sortedCanonical(edges []graph.Edge) []graph.Edge {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = e.Key()
	}
	slices.Sort(keys)
	out := make([]graph.Edge, len(keys))
	for i, k := range keys {
		out[i] = graph.KeyEdge(k)
	}
	return out
}

// TestEncodingMatchesSorted: the encoder sorts every key list itself, so
// edge lists in any order and orientation encode to the bytes of the same
// state pre-sorted, and decode to the canonical sorted sets. The lists
// differ in length, so the key scratch the encoder reuses across lists
// shrinks and regrows, and the encoding spans several 64 KiB chunks.
func TestEncodingMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	full := randEdges(rng, 20_000, func() graph.NodeID { return randNode(rng) })
	reversed := sortedCanonical(randEdges(rng, 500, func() graph.NodeID { return graph.NodeID(rng.IntN(1 << 20)) }))
	slices.Reverse(reversed)
	for i, e := range reversed {
		reversed[i] = graph.Edge{U: e.V, V: e.U}
	}
	lists := [][]graph.Edge{reversed, full, full[:100], nil}
	sums := make(map[graph.NodeID]int64)
	for len(sums) < 3000 {
		sums[randNode(rng)] = rng.Int64N(1<<40) - 1<<39
	}

	state := func(lists [][]graph.Edge) *EngineState {
		st := &EngineState{Fingerprint: Fingerprint{M: 2, C: len(lists), Seed: 5, TrackLocal: true, TrackEta: true}}
		for _, edges := range lists {
			tcnt := make(map[uint64]int32, len(edges))
			for _, e := range edges {
				tcnt[e.Key()] = int32(e.Key()*0x9e3779b97f4a7c15>>44) - 1<<19
			}
			st.Procs = append(st.Procs, ProcState{Edges: edges, Tcnt: tcnt})
		}
		st.TauV1, st.TauV2, st.EtaV = tableOf(sums), tableOf(sums), &graph.NodeTable[int64]{}
		return st
	}
	sorted := make([][]graph.Edge, len(lists))
	for i, edges := range lists {
		sorted[i] = sortedCanonical(edges)
	}
	raw := state(lists)

	data := encodeEngine(t, raw)
	if len(data) < 2*chunk {
		t.Fatalf("encoding is %d bytes, want at least two %d-byte chunks", len(data), chunk)
	}
	if want := encodeEngine(t, state(sorted)); !bytes.Equal(data, want) {
		t.Fatal("encoding differs from the encoding of the pre-sorted state")
	}
	got, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Procs {
		if !slices.Equal(p.Edges, sorted[i]) {
			t.Errorf("proc %d decoded %d edges, not the %d canonical sorted ones", i, len(p.Edges), len(sorted[i]))
		}
		if !maps.Equal(p.Tcnt, raw.Procs[i].Tcnt) {
			t.Errorf("proc %d closing counters differ after the round trip", i)
		}
	}
	if !sameClassSums(got, raw) {
		t.Error("class sums differ after the round trip")
	}
}

// TestWriteDuplicateKey: a repeated edge, in either orientation and
// however often, fails the encode.
func TestWriteDuplicateKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	edges := randEdges(rng, 1000, func() graph.NodeID { return randNode(rng) })
	same := make([]graph.Edge, 300)
	for i := range same {
		same[i] = graph.Edge{U: 1, V: 2}
	}
	for _, tc := range []struct {
		name  string
		edges []graph.Edge
	}{
		{"reversed copy", append(slices.Clone(edges), graph.Edge{U: edges[7].V, V: edges[7].U})},
		{"one edge repeated", same},
	} {
		st := &EngineState{Fingerprint: Fingerprint{M: 1, C: 1, Seed: 1}, Procs: []ProcState{{Edges: tc.edges}}}
		err := WriteEngine(&bytes.Buffer{}, st)
		if err == nil || !strings.Contains(err.Error(), "duplicate key") {
			t.Errorf("%s: err = %v, want a duplicate key error", tc.name, err)
		}
	}
}
