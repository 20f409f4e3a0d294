package shard

import (
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
	// global estimate evaluates from it (GlobalEstimate). Its class sums
	// are the whole merged tables, or, when Delta is set, only the merged
	// class-sum updates since the previous Observe, which the caller adds
	// onto the class sums it already holds. A private copy: the caller
	// may keep it indefinitely.
	Aggregates *core.Aggregates
	// Delta reports that Aggregates' class sums are a delta (see Observe).
	Delta bool
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
// Observation at one barrier. Every engine hands over its class-sum
// delta — the updates since the previous Observe — and restarts it, so
// the barrier copies per-node state in proportion to what changed. An
// engine not recording a delta (before the first Observe, and after a
// Downsample or StopDeltas) hands over its whole class sums instead and
// starts recording. Deltas start and stop only at barriers, which every
// engine takes in the same order, so all engines answer alike. Each call
// takes the deltas the previous one restarted, so the epoch-view
// publisher must be its only caller. No other barrier (Aggregates,
// Snapshot, checkpoints) touches the deltas, and engines no Observe
// reached record none.
//
// Safe for concurrent use with Add; edges added while the barrier is
// taken land after it. Like every non-Close method, Observe panics with
// core.ErrClosed after Close. The aggregation must not depend on
// iteration order — two Observations at the same barrier prefix must be
// identical.
//
//rept:deterministic
func (s *Sharded) Observe() Observation {
	n := len(s.engines)
	aggs, deltas := make([]*core.Aggregates, n), make([]bool, n)
	sampled, sat := make([]int, n), make([]uint64, n)
	var deg *graph.DegreeCounts
	bar := s.barrier(&barrier{
		engine: func(i int, eng *core.Engine) {
			aggs[i], deltas[i] = eng.TakeDelta()
			sampled[i], sat[i] = eng.SampledEdges(), eng.EtaSaturations()
		},
		degrees: func(t *graph.DegreeTable) { deg = t.Counts() },
	})
	for _, d := range deltas {
		if d != deltas[0] {
			panic("shard: engines disagree on whether they record a class-sum delta")
		}
	}
	return Observation{
		Aggregates:     merge(aggs),
		Delta:          deltas[0],
		Degrees:        deg,
		SampledEdges:   sum(sampled),
		EtaSaturations: sum(sat),
		Processed:      bar.processed,
		Deleted:        bar.deleted,
		SelfLoops:      bar.selfLoops,
	}
}

// StopDeltas stops every engine's class-sum delta at one barrier and
// releases its storage: the epoch-view publisher's last barrier, so a
// delta nobody reads any more stops growing. The next Observe hands over
// whole class sums.
func (s *Sharded) StopDeltas() {
	s.barrier(&barrier{engine: func(_ int, eng *core.Engine) { eng.StopDelta() }})
}
