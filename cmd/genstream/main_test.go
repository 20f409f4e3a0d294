package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rept"
)

func TestGenModels(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-model", "er", "-n", "50", "-edges", "100"},
		{"-model", "ba", "-n", "50", "-k", "3"},
		{"-model", "holmekim", "-n", "50", "-k", "3", "-pt", "0.5"},
		{"-model", "ws", "-n", "50", "-k", "3", "-beta", "0.2"},
		{"-model", "cohub", "-n", "50", "-pairs", "2", "-followers", "10"},
	}
	for i, args := range cases {
		path := filepath.Join(dir, "out.txt")
		var out, errOut bytes.Buffer
		if err := run(append(args, "-out", path), &out, &errOut); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		edges, err := rept.ReadEdgeListFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) == 0 {
			t.Errorf("case %d: empty output", i)
		}
	}
}

func TestGenDatasetToStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-dataset", "sim-youtube", "-scale", "0.05"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	edges, err := rept.ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) < 100 {
		t.Errorf("only %d edges generated", len(edges))
	}
}

func TestGenList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sim-twitter") {
		t.Errorf("list output missing datasets: %q", out.String())
	}
}

func TestGenErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, &out, &errOut); err == nil {
		t.Error("no model/dataset: got nil error")
	}
	if err := run([]string{"-model", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown model: got nil error")
	}
	if err := run([]string{"-model", "er", "-n", "50"}, &out, &errOut); err == nil {
		t.Error("er without -edges: got nil error")
	}
	if err := run([]string{"-dataset", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown dataset: got nil error")
	}
}
