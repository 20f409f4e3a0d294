package shard

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"rept/internal/gen"
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
	if obs.Estimate.Global != snap.Global {
		t.Errorf("observation global %v != snapshot global %v", obs.Estimate.Global, snap.Global)
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
	if len(obs.Degrees) != len(want) {
		t.Fatalf("degree table has %d nodes, want %d", len(obs.Degrees), len(want))
	}
	for v, d := range want {
		if obs.Degrees[v] != d {
			t.Fatalf("degree(%d) = %d, want %d", v, obs.Degrees[v], d)
		}
	}

	// The barrier copy is private: mutating it must not touch the tracker.
	for v := range obs.Degrees {
		obs.Degrees[v] = 0
	}
	if again := s.Observe(); again.Degrees[edges[0].U] == 0 {
		t.Error("mutating an observation's degree map corrupted the tracker")
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
	before := s.Observe().Degrees

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
	after := r.Observe().Degrees
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

// TestResumeVersion1Snapshot: a snapshot written by the version-1 format
// (golden blob generated before the degree table existed) still restores
// and keeps estimating.
func TestResumeVersion1Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/sharded_v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	// Must match the generator: M 3, C 10, Shards 2, Seed 99, local+eta,
	// fed HolmeKim(60, 4, 0.4, 5) shuffled with seed 13.
	cfg := Config{M: 3, C: 10, Shards: 2, Seed: 99, TrackLocal: true, TrackEta: true}
	s, err := Resume(cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("version-1 snapshot no longer restores: %v", err)
	}
	defer s.Close()

	want := uint64(len(gen.HolmeKim(60, 4, 0.4, 5)))
	if got := s.Processed(); got != want {
		t.Errorf("restored processed = %d, want %d", got, want)
	}
	// The restored estimator still answers and keeps accepting edges.
	if g := s.Snapshot().Global; g < 0 {
		t.Errorf("restored global estimate = %v", g)
	}
	s.Add(1000, 1001)
	if got := s.Processed(); got != want+1 {
		t.Errorf("processed after suffix edge = %d, want %d", got, want+1)
	}

	// A version-1 snapshot has no degree table: restoring it into a
	// degree-tracking config must fail loudly, not invent zeros.
	withDeg := cfg
	withDeg.TrackDegrees = true
	if _, err := Resume(withDeg, bytes.NewReader(data)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("v1 restore with TrackDegrees on: err = %v, want ErrMismatch", err)
	}
}
