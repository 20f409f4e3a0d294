package shard

import (
	"bytes"
	"errors"
	"testing"

	"rept/internal/graph"
	"rept/internal/snapshot"
)

// TestObserveConsistency: one Observe reports estimate, degrees, tallies,
// and sampled edges at the same prefix, agreeing with the separate calls
// once ingest has quiesced.
func TestObserveConsistency(t *testing.T) {
	s, err := New(Config{M: 3, C: 9, Shards: 3, Seed: 21, TrackLocal: true, TrackDegrees: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	edges := testStream(t)
	s.ApplyBatch(graph.Inserts(edges))

	obs := s.Observe()
	if obs.Processed != uint64(len(edges)) {
		t.Errorf("observation processed = %d, want %d", obs.Processed, len(edges))
	}
	snap := s.Snapshot()
	if g := obs.Aggregates.GlobalEstimate().Global; g != snap.Global {
		t.Errorf("observation global %v != snapshot global %v", g, snap.Global)
	}
	if got := s.SampledEdges(); obs.SampledEdges != got {
		t.Errorf("observation sampled %d != SampledEdges %d", obs.SampledEdges, got)
	}

	// Degrees equal the stream's true degrees (the generator emits each
	// edge once).
	want := make(map[graph.NodeID]uint32)
	for _, e := range edges {
		want[e.U]++
		want[e.V]++
	}
	deg := obs.Degrees.Map()
	if len(deg) != len(want) {
		t.Fatalf("degree table has %d nodes, want %d", len(deg), len(want))
	}
	for v, d := range want {
		if deg[v] != d || obs.Degrees.Degree(v) != d {
			t.Fatalf("degree(%d) = %d, want %d", v, obs.Degrees.Degree(v), d)
		}
	}

	// The barrier copy is private: ingest after it must not touch it.
	s.Add(edges[0].U, 1<<30)
	if got := obs.Degrees.Degree(edges[0].U); got != want[edges[0].U] {
		t.Errorf("later ingest changed an observation's degree copy: %d, want %d", got, want[edges[0].U])
	}
}

// TestObserveWithoutDegrees: the degree map stays nil when tracking is
// off (the zero-cost default).
func TestObserveWithoutDegrees(t *testing.T) {
	s, err := New(Config{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Add(1, 2)
	if obs := s.Observe(); obs.Degrees != nil {
		t.Errorf("degrees = %v without TrackDegrees", obs.Degrees)
	}
}

// TestSnapshotCarriesDegrees: shard checkpoints round-trip the degree
// table bit-for-bit, and TrackDegrees mismatches are rejected.
func TestSnapshotCarriesDegrees(t *testing.T) {
	cfg := Config{M: 3, C: 6, Shards: 2, Seed: 17, TrackLocal: true, TrackDegrees: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(t)
	s.ApplyBatch(graph.Inserts(edges))
	before := s.Observe().Degrees.Map()

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := r.Observe().Degrees.Map()
	if len(after) != len(before) {
		t.Fatalf("restored degree table has %d nodes, want %d", len(after), len(before))
	}
	for v, d := range before {
		if after[v] != d {
			t.Fatalf("restored degree(%d) = %d, want %d", v, after[v], d)
		}
	}

	noDeg := cfg
	noDeg.TrackDegrees = false
	if _, err := Resume(noDeg, bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("resume with TrackDegrees off: err = %v, want ErrMismatch", err)
	}
}
