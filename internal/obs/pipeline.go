package obs

import "strconv"

// Pipeline bundles the stage-latency histograms and the flight recorder
// that instrument the ingest path end to end: NDJSON parse → shard
// dispatch → queue wait → engine apply → barrier → WAL append/fsync →
// view publish. Recording sites skip a nil *Pipeline, but a non-nil one
// must be whole, as NewPipeline builds it: a nil *Flight records
// nothing, while a nil *Histogram panics on its first observation.
type Pipeline struct {
	Reg *Registry

	// Parse is the server-side NDJSON scan+decode time per flushed batch.
	Parse *Histogram
	// Dispatch is the whole AddAll/ApplyAll call: batching, the wait for
	// the ingest lock, and fan-out to every shard channel.
	Dispatch *Histogram
	// QueueWait is the channel sends of one batch or barrier to every
	// consumer queue, made under the ingest lock; a wait behind another
	// producer's sends counts in Dispatch instead.
	QueueWait *Histogram
	// Apply is one engine's ApplyAll over one delivered batch.
	Apply *Histogram
	// Barrier is a full quiesce: drain every shard channel and collect
	// tallies.
	Barrier *Histogram
	// WALAppend is one Log.Append (encode + buffered write).
	WALAppend *Histogram
	// WALSync is one Log.Commit (the group-commit fsync).
	WALSync *Histogram
	// WALCompact is one Log.Compact that published its checkpoint: the
	// snapshot barrier, encode, write and sync, and the segment trim.
	WALCompact *Histogram
	// ViewPublish is one epoch snapshot build + atomic swap.
	ViewPublish *Histogram
	// BatchSizes is the events-per-delivered-batch size histogram — the
	// direct readout of how well callers amortize dispatch overhead
	// (ApplyBatch lands a body's length per batch up to BatchSize,
	// per-event feeding lands BatchSize unless a barrier cuts in).
	BatchSizes *Histogram

	// Flight records the last N pipeline events for /debug/flight.
	Flight *Flight

	// ShardQueueDepth, ShardBatchEvents, and ShardApplied hold the
	// per-shard gauges/counters; shards register their children at build
	// time via ShardLabel.
	ShardQueueDepth  *GaugeVec
	ShardBatchEvents *GaugeVec
	ShardApplied     *CounterVec
}

// DefaultFlightEvents is the flight-recorder capacity NewPipeline uses.
const DefaultFlightEvents = 4096

// NewPipeline registers the standard stage instruments on reg and
// returns the bundle. Call once per registry; duplicate registration
// panics by design.
func NewPipeline(reg *Registry) *Pipeline {
	return &Pipeline{
		Reg:         reg,
		Parse:       reg.Histogram("rept_stage_parse_seconds", "NDJSON scan and decode latency per ingested batch."),
		Dispatch:    reg.Histogram("rept_stage_dispatch_seconds", "Full shard dispatch latency per batch: batching, ingest-lock wait, and fan-out."),
		QueueWait:   reg.Histogram("rept_stage_queue_wait_seconds", "Channel-send latency per delivered batch or barrier, under the ingest lock."),
		Apply:       reg.Histogram("rept_stage_apply_seconds", "Engine apply latency per delivered batch, per shard."),
		Barrier:     reg.Histogram("rept_stage_barrier_seconds", "Full-quiesce barrier latency: drain all shards and collect tallies."),
		WALAppend:   reg.Histogram("rept_stage_wal_append_seconds", "WAL record encode and buffered write latency per batch."),
		WALSync:     reg.Histogram("rept_stage_wal_fsync_seconds", "WAL group-commit fsync latency."),
		WALCompact:  reg.Histogram("rept_stage_wal_compact_seconds", "WAL compaction latency per published checkpoint: snapshot, write, sync and segment trim."),
		ViewPublish: reg.Histogram("rept_stage_view_publish_seconds", "Epoch view build and publish latency."),
		BatchSizes:  reg.SizeHistogram("rept_batch_events", "Events per delivered batch."),
		Flight:      NewFlight(DefaultFlightEvents),
		ShardQueueDepth: reg.GaugeVec("rept_shard_queue_depth",
			"Batches waiting in each shard's ingest queue.", "shard"),
		ShardBatchEvents: reg.GaugeVec("rept_shard_last_batch_events",
			"Events in the last batch each shard applied.", "shard"),
		ShardApplied: reg.CounterVec("rept_shard_events_applied_total",
			"Events applied by each shard's engine.", "shard"),
	}
}

// ShardLabel renders a shard index as its metric label value.
func ShardLabel(i int) string { return strconv.Itoa(i) }
