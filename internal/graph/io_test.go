package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"rept/internal/graph"
	"rept/internal/stream"
)

// readBack reads the edge list at path through stream.FileSource, the
// one SNAP edge-list parser.
func readBack(t *testing.T, path string) []graph.Edge {
	t.Helper()
	src, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	edges, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestEdgeListRoundTrip(t *testing.T) {
	stream := []graph.Edge{{U: 5, V: 1}, {U: 2, V: 7}, {U: 0, V: 0}, {U: 1, V: 5}}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, stream); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back := readBack(t, path)
	if len(back) != len(stream) {
		t.Fatalf("round trip length %d, want %d", len(back), len(stream))
	}
	for i := range stream {
		if back[i] != stream[i] {
			t.Errorf("edge %d = %v, want %v", i, back[i], stream[i])
		}
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	stream := []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}
	if err := graph.WriteEdgeListFile(path, stream); err != nil {
		t.Fatal(err)
	}
	back := readBack(t, path)
	if len(back) != 2 || back[0] != stream[0] || back[1] != stream[1] {
		t.Fatalf("got %v, want %v", back, stream)
	}
	if err := graph.WriteEdgeListFile(filepath.Join(t.TempDir(), "missing", "g.txt"), stream); err == nil {
		t.Error("writing into a missing directory: got nil error")
	}
}
