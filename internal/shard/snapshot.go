package shard

import (
	"fmt"
	"io"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/snapshot"
)

// fingerprint returns the coordinator-level statistical identity. Shards,
// BatchSize, and QueueLen are execution details — but note that the
// *effective* shard count does shape per-shard hash seeds, so it is
// carried separately in the snapshot (ShardedState.ShardCount) and
// enforced on restore.
func (c Config) fingerprint() snapshot.Fingerprint {
	return snapshot.Fingerprint{
		M:            c.M,
		C:            c.C,
		Seed:         c.Seed,
		TrackLocal:   c.TrackLocal,
		TrackEta:     c.TrackEta,
		FullyDynamic: c.FullyDynamic,
	}
}

// WriteSnapshot checkpoints every shard barrier-consistently into one
// multi-shard snapshot: all engine states describe exactly the same
// stream prefix, as do the processed/self-loop tallies. Safe for
// concurrent use with Add; the coordinator keeps ingesting afterwards
// (edges added while the checkpoint is being taken land after it).
func (s *Sharded) WriteSnapshot(w io.Writer) error {
	_, err := s.WriteSnapshotPos(w)
	return err
}

// WriteSnapshotPos is WriteSnapshot, additionally reporting the stream
// position (the snapshot's Processed tally) the checkpoint covers — the
// quantity WAL compaction needs to decide which sealed segments the
// checkpoint makes redundant.
func (s *Sharded) WriteSnapshotPos(w io.Writer) (uint64, error) {
	st := &snapshot.ShardedState{
		Fingerprint:  s.cfg.fingerprint(),
		ShardCount:   len(s.engines),
		TrackDegrees: s.cfg.TrackDegrees,
		Shards:       make([]snapshot.EngineState, len(s.engines)),
	}
	bar := s.barrier(&barrier{
		engine:  func(i int, eng *core.Engine) { st.Shards[i] = *eng.State() },
		degrees: func(t *graph.DegreeTable) { st.Degrees = t.LiveEdges() },
	})
	st.Processed, st.Deleted, st.SelfLoops = bar.processed, bar.deleted, bar.selfLoops
	return bar.processed, snapshot.WriteSharded(w, st)
}

// Resume reads a multi-shard snapshot from r and restores it into a new
// coordinator built for cfg. The snapshot's coordinator fingerprint must
// match cfg (M, C, Seed, TrackLocal, TrackEta) and its shard count must
// equal the count cfg implies — per-shard hash seeds derive from (Seed,
// shard index), so restoring under a different split would silently
// change the estimator's statistics. Mismatches are rejected with an
// error wrapping snapshot.ErrMismatch; each shard's own fingerprint is
// additionally verified against the derived per-shard configuration.
func Resume(cfg Config, r io.Reader) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := snapshot.ReadSharded(r)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if err := st.Fingerprint.Match(cfg.fingerprint()); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if want := cfg.shardCount(); st.ShardCount != want {
		return nil, fmt.Errorf("shard: %w: snapshot has %d shards, config implies %d (set Config.Shards to match)", snapshot.ErrMismatch, st.ShardCount, want)
	}
	// The degree table is part of the restore contract like the
	// fingerprint fields: silently dropping it would break clustering
	// coefficients, silently starting one empty would corrupt them.
	if st.TrackDegrees != cfg.TrackDegrees {
		return nil, fmt.Errorf("shard: %w: TrackDegrees = %v in snapshot, %v in config", snapshot.ErrMismatch, st.TrackDegrees, cfg.TrackDegrees)
	}
	s, err := build(cfg, st.Shards, st.Degrees)
	if err != nil {
		return nil, err
	}
	s.processed.Store(st.Processed)
	s.deleted.Store(st.Deleted)
	s.selfLoops.Store(st.SelfLoops)
	return s, nil
}
