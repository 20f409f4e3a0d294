package shard_test

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/shard"
	"rept/internal/snapshot"
)

// TestResumeVersion2Snapshot: a snapshot written by the version-2 format
// (golden blob generated before fully-dynamic mode existed) still
// restores — with the FullyDynamic fingerprint defaulting to off — and
// keeps estimating.
func TestResumeVersion2Snapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/sharded_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	// Must match the generator: M 3, C 10, Shards 2, Seed 99,
	// local+eta+degrees, fed HolmeKim(60, 4, 0.4, 5) shuffled with seed 13.
	cfg := shard.Config{M: 3, C: 10, Shards: 2, Seed: 99, TrackLocal: true, TrackEta: true, TrackDegrees: true}
	s, err := shard.Resume(cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("version-2 snapshot no longer restores: %v", err)
	}
	defer s.Close()

	want := uint64(len(gen.HolmeKim(60, 4, 0.4, 5)))
	if got := s.Processed(); got != want {
		t.Errorf("restored processed = %d, want %d", got, want)
	}
	if got := s.Deleted(); got != 0 {
		t.Errorf("restored deleted = %d, want 0 (format predates deletions)", got)
	}
	if g := s.Snapshot().Global; g < 0 {
		t.Errorf("restored global estimate = %v", g)
	}
	s.Add(1000, 1001)
	if got := s.Processed(); got != want+1 {
		t.Errorf("processed after suffix edge = %d, want %d", got, want+1)
	}

	// A version-2 snapshot carries FullyDynamic=false: restoring it into
	// a fully-dynamic config must fail loudly, not silently enable
	// deletions on counters that were never meant to go signed.
	dyn := cfg
	dyn.FullyDynamic = true
	if _, err := shard.Resume(dyn, bytes.NewReader(data)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("v2 restore with FullyDynamic on: err = %v, want ErrMismatch", err)
	}
}

// goldenV3Config and goldenV3Stream must match the sharded_v3.snap
// generator exactly.
func goldenV3Config() shard.Config {
	return shard.Config{M: 3, C: 10, Shards: 2, Seed: 99, TrackLocal: true, TrackEta: true, TrackDegrees: true, FullyDynamic: true}
}

func goldenV3Stream() []graph.Update {
	base := gen.Shuffle(gen.HolmeKim(60, 4, 0.4, 5), 13)
	return exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: 7})
}

// TestGoldenVersion3Snapshot pins the version-3 wire format: re-running
// the deterministic deletion-bearing stream that generated the golden
// blob must reproduce it byte for byte (the encoding is canonical), and
// restoring the blob must yield an estimator that matches the
// uninterrupted one exactly.
func TestGoldenVersion3Snapshot(t *testing.T) {
	golden, err := os.ReadFile("testdata/sharded_v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenV3Config()
	ups := goldenV3Stream()

	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyBatch(ups)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("version-3 encoding drifted: regenerated snapshot is %d bytes and differs from the %d-byte golden blob (bump the format version instead of silently changing the encoding)", buf.Len(), len(golden))
	}

	r, err := shard.Resume(cfg, bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden v3 snapshot does not restore: %v", err)
	}
	defer r.Close()
	var dels uint64
	for _, up := range ups {
		if up.Del {
			dels++
		}
	}
	if r.Processed() != uint64(len(ups)) || r.Deleted() != dels {
		t.Errorf("restored tallies = (%d, %d), want (%d, %d)", r.Processed(), r.Deleted(), len(ups), dels)
	}

	// Restoring under the insert-only interpretation of the same config
	// must be rejected: the FullyDynamic flag is part of the contract.
	plain := cfg
	plain.FullyDynamic = false
	if _, err := shard.Resume(plain, bytes.NewReader(golden)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("v3 FD restore with FullyDynamic off: err = %v, want ErrMismatch", err)
	}
}
