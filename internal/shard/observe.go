package shard

import (
	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/obs"
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
	// Delta reports that Aggregates' class sums are a delta.
	Delta bool
	// Rebuild says why a delta was asked for but the class sums are whole
	// (obs.CauseDownsample or obs.CauseDeltaCap); obs.CauseNone otherwise.
	Rebuild obs.Cause
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
// Observation. With delta set, every engine hands over its class-sum
// delta — the updates since the previous Observe — and restarts it, so
// the barrier copies per-node state in proportion to what changed.
// Without it, or when an engine holds no delta (a Downsample rescaled
// every class sum, or the engine dropped a delta past its size cap), the
// class sums are merged whole and every engine restarts its delta at
// this prefix; the first Observe is such a full one. Each call takes
// the deltas the previous one restarted, so the epoch-view publisher
// must be its only caller, and a delta Observe is exact only after an
// earlier Observe on the same coordinator. No other barrier
// (Aggregates, Snapshot, checkpoints, Downsample) touches the deltas,
// and engines no Observe reached record none.
//
// Safe for concurrent use with Add; edges added while the barrier is
// taken land after it. Like every non-Close method, Observe panics with
// core.ErrClosed after Close. The aggregation must not depend on
// iteration order — two Observations at the same barrier prefix must be
// identical.
//
//rept:deterministic
func (s *Sharded) Observe(delta bool) Observation {
	sums := core.SumsRestart
	if delta {
		sums = core.SumsDelta
	}
	bar := s.barrier(&barrier{sums: sums, observe: true})
	var cause obs.Cause
	switch {
	case !delta:
	case bar.sums == core.SumsRestart:
		cause = obs.CauseDownsample
	case bar.noDelta.Load():
		cause = obs.CauseDeltaCap
		bar = s.barrier(&barrier{sums: core.SumsRestart, observe: true})
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
		Aggregates:     merge(bar.aggs),
		Delta:          bar.sums == core.SumsDelta,
		Rebuild:        cause,
		Degrees:        bar.degrees,
		SampledEdges:   total,
		EtaSaturations: sat,
		Processed:      bar.processed,
		Deleted:        bar.deleted,
		SelfLoops:      bar.selfLoops,
	}
}
