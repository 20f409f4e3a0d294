package core

import (
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/mem"
)

// maxAdjacencyBytesPerEdge caps the sampled adjacency's ledger cost per
// sampled edge on a power-law stream. Under a memory budget this figure
// decides how far the controller must cut the sampling probability, so it
// is gated like a time regression. The 32-byte pointer-free arena entry
// measures 63 B/edge here; an 80-byte entry with in-line slice headers
// measured 106.
const maxAdjacencyBytesPerEdge = 75

// TestAdjacencyBytesPerSampledEdge feeds a seeded Holme–Kim stream to an
// accounted engine and bounds the adjacency component of the ledger by
// the number of edges the processors hold.
func TestAdjacencyBytesPerSampledEdge(t *testing.T) {
	ac := mem.New()
	e, err := NewEngine(Config{M: 10, C: 10, Seed: 1, Mem: ac})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.ApplyAll(graph.Inserts(gen.HolmeKim(50_000, 8, 0.5, 1)))
	edges := e.SampledEdges()
	if edges == 0 {
		t.Fatal("no sampled edges")
	}
	perEdge := ac.Bytes(mem.CompAdjacency) / int64(edges)
	t.Logf("adjacency %d bytes over %d sampled edges: %d B/edge", ac.Bytes(mem.CompAdjacency), edges, perEdge)
	if perEdge > maxAdjacencyBytesPerEdge {
		t.Errorf("adjacency costs %d B per sampled edge, want <= %d", perEdge, maxAdjacencyBytesPerEdge)
	}
}
