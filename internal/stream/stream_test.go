package stream

import (
	"os"
	"path/filepath"
	"testing"

	"rept/internal/graph"
)

func TestSliceSource(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	s := FromSlice(edges)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Fatalf("Collect = %v, want %v", got, edges)
	}
	if _, ok := s.Next(); ok {
		t.Error("Next after exhaustion returned ok")
	}
	s.Reset()
	if e, ok := s.Next(); !ok || e != edges[0] {
		t.Error("Reset did not rewind")
	}
}

func TestFileSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	// Comments, blank lines and columns past the second are skipped;
	// duplicates and self-loops pass through (Dedup filters them).
	content := "# header\n0 1\n\n% comment\n2 3\n1 2\textra-col-ignored\n0 1\n3 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}, {U: 0, V: 1}, {U: 3, V: 3}}
	if len(got) != len(want) {
		t.Fatalf("Collect = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collect = %v, want %v", got, want)
		}
	}
}

func TestFileSourceParseError(t *testing.T) {
	for _, bad := range []string{
		"not numbers\n",   // non-numeric
		"0\n",             // single field
		"1 99999999999\n", // overflows uint32
	} {
		path := filepath.Join(t.TempDir(), "bad.txt")
		if err := os.WriteFile(path, []byte("0 1\n"+bad), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(src); err == nil {
			t.Errorf("Collect on %q: got nil error", bad)
		}
		// Subsequent Next calls must keep failing.
		if _, ok := src.Next(); ok {
			t.Errorf("Next after error on %q returned ok", bad)
		}
		src.Close()
	}
}

func TestFileSourceMissingFile(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("OpenFile(missing): got nil error")
	}
}

func TestDedupSource(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 2}, {U: 1, V: 2}, {U: 0, V: 1}, {U: 2, V: 2},
	}
	// Dropping loops: only the three distinct simple edges remain... the
	// stream has edges {0,1},{1,2} distinct plus loops and duplicates.
	d := Dedup(FromSlice(edges), true)
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if d.Duplicates() != 2 {
		t.Errorf("Duplicates = %d, want 2", d.Duplicates())
	}
	if d.SelfLoops() != 2 {
		t.Errorf("SelfLoops = %d, want 2", d.SelfLoops())
	}
	// Keeping loops: first loop passes through, duplicates of simple
	// edges are still dropped, repeated loops pass (degenerate keys are
	// not tracked).
	d2 := Dedup(FromSlice(edges), false)
	got2, err := Collect(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 4 {
		t.Fatalf("with loops kept, got %d edges, want 4 (%v)", len(got2), got2)
	}
	if d2.Err() != nil {
		t.Errorf("Err = %v", d2.Err())
	}
}

func TestIntervals(t *testing.T) {
	edges := make([]graph.Edge, 10)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)}
	}
	parts := Intervals(edges, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d intervals, want 3", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != len(edges) {
		t.Errorf("intervals cover %d edges, want %d", total, len(edges))
	}
	// Order preserved across the concatenation.
	i := 0
	for _, p := range parts {
		for _, e := range p {
			if e != edges[i] {
				t.Fatalf("interval order broken at %d", i)
			}
			i++
		}
	}
	// More intervals than edges: trailing empties allowed.
	parts = Intervals(edges[:2], 5)
	if len(parts) != 5 {
		t.Fatalf("got %d intervals, want 5", len(parts))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intervals(n=0) did not panic")
		}
	}()
	Intervals(edges, 0)
}
