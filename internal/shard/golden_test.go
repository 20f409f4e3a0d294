package shard_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"testing"

	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/shard"
	"rept/internal/snapshot"
)

// updateGolden rewrites the golden blob from goldenConfig and
// goldenStream; use it only together with a Version bump.
var updateGolden = flag.Bool("update", false, "rewrite testdata/sharded_v6.snap")

// goldenConfig and goldenStream generate testdata/sharded_v6.snap.
func goldenConfig() shard.Config {
	return shard.Config{M: 3, C: 10, Shards: 2, Seed: 99, TrackLocal: true, TrackEta: true, TrackDegrees: true, FullyDynamic: true}
}

func goldenStream() []graph.Update {
	base := gen.Shuffle(gen.HolmeKim(60, 4, 0.4, 5), 13)
	return exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: 7})
}

// TestGoldenVersion6Snapshot pins the wire format: re-running the
// deterministic deletion-bearing stream that generated the golden blob
// must reproduce it byte for byte (the encoding is canonical), and
// restoring the blob must yield a coordinator that checkpoints back to
// the same bytes.
func TestGoldenVersion6Snapshot(t *testing.T) {
	cfg := goldenConfig()
	ups := goldenStream()

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
	if *updateGolden {
		if err := os.WriteFile("testdata/sharded_v6.snap", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile("testdata/sharded_v6.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("version-%d encoding drifted: regenerated snapshot is %d bytes and differs from the %d-byte golden blob (bump the format version instead of silently changing the encoding)", snapshot.Version, buf.Len(), len(golden))
	}

	r, err := shard.Resume(cfg, bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden snapshot does not restore: %v", err)
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
	var again bytes.Buffer
	if err := r.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Error("restored coordinator checkpoints to different bytes than the blob it restored")
	}

	// Restoring under the insert-only interpretation of the same config
	// must be rejected: the FullyDynamic flag is part of the contract.
	plain := cfg
	plain.FullyDynamic = false
	if _, err := shard.Resume(plain, bytes.NewReader(golden)); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("FD restore with FullyDynamic off: err = %v, want ErrMismatch", err)
	}
}
