package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

func writeStream(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	edges := gen.Shuffle(gen.HolmeKim(300, 5, 0.5, 1), 2)
	// Add some noise for -dedup coverage.
	edges = append(edges, edges[0], graph.Edge{U: 5, V: 5})
	if err := graph.WriteEdgeListFile(path, edges); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExact(t *testing.T) {
	k10 := filepath.Join(t.TempDir(), "k10.txt")
	if err := graph.WriteEdgeListFile(k10, gen.Complete(10)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-in", writeStream(t), "-local", "-top", "3", "-dedup"}, []string{"triangles=", "eta=", "eta/tau=", "node "}},
		// K10: τ = C(10,3) = 120, τ_v = C(9,2) = 36.
		{[]string{"-in", k10, "-local", "-top", "2"}, []string{"triangles=120", "τ_v=36\n"}},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-algo", "exact"}, tc.args...), &out); err != nil {
			t.Fatal(err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%v: missing %q in %q", tc.args, w, out.String())
			}
		}
	}
}

func TestRunREPT(t *testing.T) {
	path := writeStream(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "rept", "-m", "4", "-c", "4", "-local", "-dedup"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triangles≈") {
		t.Errorf("missing estimate: %q", out.String())
	}
}

func TestRunBaselines(t *testing.T) {
	path := writeStream(t)
	for _, algo := range []string{"mascot", "triest", "gps"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo, "-m", "4", "-local"}, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "triangles≈") {
			t.Errorf("%s: missing estimate: %q", algo, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "rept"}, &out); err == nil {
		t.Error("missing -in: got nil error")
	}
	if err := run([]string{"-in", "/nonexistent", "-algo", "rept"}, &out); err == nil {
		t.Error("missing file: got nil error")
	}
	path := writeStream(t)
	if err := run([]string{"-in", path, "-algo", "bogus"}, &out); err == nil {
		t.Error("unknown algo: got nil error")
	}
	if err := run([]string{"-in", path, "-algo", "rept", "-m", "0"}, &out); err == nil {
		t.Error("bad m: got nil error")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Error("unknown flag: got nil error")
	}
}
