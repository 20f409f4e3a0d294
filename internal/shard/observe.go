package shard

import (
	"fmt"

	"rept/internal/core"
	"rept/internal/graph"
)

// Observation is everything a read-side consumer can learn from ONE
// barrier: the merged counters, the degree counters (when tracked), the
// sampled-edge total, and the coordinator tallies — all describing exactly
// the same stream prefix. It is the input the epoch-view publisher
// (internal/query) materializes views from; taking one Observation instead
// of separate Snapshot/SampledEdges/Processed calls both halves the
// barrier count and removes the torn-read window between them.
type Observation struct {
	// Aggregates holds the merged counters at the barrier prefix: the
	// global estimate evaluates from it (GlobalEstimate), and its flat
	// class sums answer per-node estimates on demand (LocalOf). A private
	// copy: the caller may keep it indefinitely.
	Aggregates *core.Aggregates
	// Degrees holds the stream degrees at the same prefix; nil unless
	// Config.TrackDegrees. A private copy, like Aggregates.
	Degrees *graph.DegreeCounts
	// SampledEdges is the total number of edges stored across all shards'
	// logical processors at the prefix.
	SampledEdges int
	// EtaSaturations counts per-edge closing-counter updates clamped at
	// the int32 boundary across all shards (0 on every realistic stream;
	// non-zero flags an adversarially hot edge whose η̂ contribution is a
	// bounded under-estimate).
	EtaSaturations uint64
	// Processed, Deleted, and SelfLoops are the coordinator tallies at
	// the prefix (Processed counts insertions plus deletions; Deleted the
	// deletions alone).
	Processed, Deleted, SelfLoops uint64
}

// Observe drains in-flight edges and returns a barrier-consistent
// Observation. Safe for concurrent use with Add; edges added while the
// barrier is taken land after it. Like every non-Close method, Observe
// panics with core.ErrClosed after Close. The aggregation must not
// depend on iteration order — two Observations at the same barrier
// prefix must be identical.
//
//rept:deterministic
func (s *Sharded) Observe() Observation {
	bar := s.barrier(false, 0)
	agg, err := core.MergeGroups(bar.aggs...)
	if err != nil {
		// shardConfigs guarantees the MergeGroups preconditions, so this
		// is a bug, exactly as in Aggregates.
		panic(fmt.Sprintf("shard: merge of own shards failed: %v", err))
	}
	total := 0
	for _, n := range bar.sampled {
		total += n
	}
	var sat uint64
	for _, n := range bar.etaSat {
		sat += n
	}
	return Observation{
		Aggregates:     agg,
		Degrees:        bar.degrees,
		SampledEdges:   total,
		EtaSaturations: sat,
		Processed:      bar.processed,
		Deleted:        bar.deleted,
		SelfLoops:      bar.selfLoops,
	}
}
