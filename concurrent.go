package rept

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rept/internal/mem"
	"rept/internal/query"
	"rept/internal/shard"
	"rept/internal/wal"
)

// ConcurrentConfig configures a Concurrent estimator. M, C, Seed,
// TrackLocal, and TrackEta mean exactly what they do in Config; the
// remaining fields shape the concurrent ingest layer.
type ConcurrentConfig struct {
	// M sets the edge sampling probability p = 1/M. Required, >= 1.
	M int
	// C is the TOTAL number of logical processors across all shards.
	// Required, >= 1. As in Config, estimation error shrinks as C grows.
	C int
	// Shards is the number of independent engine shards; each owns whole
	// processor groups and its own hash family seed. Values <= 0 choose a
	// default from the group count. More shards increase ingest
	// parallelism; the estimate's distribution does not depend on it.
	Shards int
	// Seed makes the estimator deterministic: per-shard hash family seeds
	// are derived from it by a splitmix64 chain.
	Seed int64
	// TrackLocal enables per-node estimates.
	TrackLocal bool
	// FullyDynamic enables edge deletions, exactly as Config.FullyDynamic.
	FullyDynamic bool
	// TrackEta forces η̂ bookkeeping on every shard (see Config.TrackEta).
	TrackEta bool
	// TrackDegrees maintains a per-node degree table alongside the shards,
	// the input clustering-coefficient queries need. Degrees are those of
	// the live graph: the table keeps the live-edge set (O(V + E) memory),
	// which snapshots carry.
	TrackDegrees bool
	// Telemetry attaches an observability bundle (see NewTelemetry):
	// stage-latency histograms across the ingest pipeline, per-shard
	// series, and a flight recorder. Nil runs uninstrumented. Telemetry
	// is operational state — it does not affect estimates, snapshots, or
	// the WAL fingerprint — and one bundle must not be shared between
	// estimators.
	Telemetry *Telemetry
}

// Concurrent is a REPT estimator that is safe for concurrent use by any
// number of goroutines, built from hash-partitioned engine shards whose
// counters merge exactly as in the distributed deployment of paper
// Section III-B (see Merge). Add, AddEdge, AddAll, Snapshot, and the
// Counter methods may all be called concurrently; Close must happen after
// all other calls have returned, and any use after Close panics.
//
// Snapshots are consistent: every shard reports its counters at the same
// stream prefix, so a Snapshot taken while producers are still adding
// edges reflects exactly the adds that completed before it.
type Concurrent struct {
	sh   *shard.Sharded
	cfg  ConcurrentConfig
	tele *Telemetry
	// acct is the per-component byte ledger every storage layer reports
	// to; always non-nil (see MemStats). Purely observational: accounting
	// happens at capacity-change moments, never per event, and the
	// estimator's output is bit-identical with or without it.
	acct *mem.Accountant
	// views is the epoch-view publisher once StartViews has run; while it
	// is nil every read goes through a fresh barrier. viewsMu serializes
	// StartViews, so no second publisher ever observes the shards while
	// a running one reads their deltas.
	views   atomic.Pointer[query.Publisher]
	viewsMu sync.Mutex

	// Durable-mode state, set by ResumeDurable (nil/zero otherwise): the
	// write-ahead log, the automatic-compaction trigger channel, and the
	// compactor goroutine's lifetime.
	lg           *wal.Log
	compactEvery uint64
	compactCh    chan struct{}
	compactWG    sync.WaitGroup
	compactErrs  atomic.Uint64
}

var _ Counter = (*Concurrent)(nil)

// shardConfig maps the public configuration onto the coordinator's.
// NewConcurrent and ResumeConcurrent must build from the identical
// mapping or a restored estimator could silently differ from the one
// that wrote the snapshot.
func (c ConcurrentConfig) shardConfig() shard.Config {
	return shard.Config{
		M:            c.M,
		C:            c.C,
		Shards:       c.Shards,
		Seed:         c.Seed,
		TrackLocal:   c.TrackLocal,
		FullyDynamic: c.FullyDynamic,
		TrackEta:     c.TrackEta,
		TrackDegrees: c.TrackDegrees,
		Obs:          c.Telemetry.obsPipeline(),
	}
}

// errViewsStarted reports a StartViews while views are running.
var errViewsStarted = errors.New("rept: views already started")

// NewConcurrent builds a concurrency-safe REPT estimator.
func NewConcurrent(cfg ConcurrentConfig) (*Concurrent, error) {
	ac := mem.New()
	scfg := cfg.shardConfig()
	scfg.Mem = ac
	sh, err := shard.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("rept: %w", err)
	}
	return &Concurrent{sh: sh, cfg: cfg, tele: cfg.Telemetry, acct: ac}, nil
}

// Add feeds one stream edge; self-loops are ignored. Safe for concurrent
// use.
func (c *Concurrent) Add(u, v NodeID) { c.sh.Add(u, v) }

// AddEdge feeds one stream edge.
func (c *Concurrent) AddEdge(edge Edge) { c.sh.Add(edge.U, edge.V) }

// AddAll feeds a slice of stream edges in order, through ApplyBatch in
// bodies of up to addAllChunk edges; bulk callers should prefer it over
// per-edge Add.
func (c *Concurrent) AddAll(edges []Edge) {
	var buf [addAllChunk]Update
	for len(edges) > 0 {
		n := min(len(edges), len(buf))
		for i, e := range edges[:n] {
			buf[i] = Update{U: e.U, V: e.V}
		}
		c.sh.ApplyBatch(buf[:n])
		edges = edges[n:]
	}
}

// addAllChunk is the body length AddAll converts edges into on the stack:
// the shard layer's segment length, so each body ships as one segment.
const addAllChunk = 1024

// Delete feeds one stream edge deletion; estimates then track the net
// (live) graph. Requires ConcurrentConfig.FullyDynamic (panics with
// ErrNotDynamic otherwise). Safe for concurrent use.
func (c *Concurrent) Delete(u, v NodeID) { c.sh.Delete(u, v) }

// ApplyAll feeds a slice of signed stream events in order — ApplyBatch
// without the Batch wrapper. Deletion events require
// ConcurrentConfig.FullyDynamic.
func (c *Concurrent) ApplyAll(ups []Update) { c.sh.ApplyBatch(ups) }

// ApplyBatch feeds every event in b, in order, under one critical
// section: the events ship as ticketed segments of at most 1024 events,
// each handed to every shard as one message, and every shard engine
// applies them through its presence-mask walk. The batch is
// copied during the call; the caller may Reset and refill it
// immediately. Deletion events require ConcurrentConfig.FullyDynamic.
// Safe for concurrent use (one goroutine per Batch).
func (c *Concurrent) ApplyBatch(b *Batch) {
	if b == nil {
		return
	}
	c.sh.ApplyBatch(b.ups)
}

// Snapshot drains in-flight edges and returns the merged estimate at a
// consistent stream prefix — a full cross-shard barrier, regardless of
// whether views are running. The estimator keeps accepting edges.
// SnapshotNow is the same operation under the name the view-era read API
// uses; prefer View for high-rate queries.
func (c *Concurrent) Snapshot() Estimate {
	res := c.sh.Snapshot()
	return Estimate{Global: res.Global, Local: res.Local, Variance: res.Variance, EtaHat: res.EtaHat}
}

// SnapshotNow is the explicit fresh-barrier escape hatch: it always pays
// one cross-shard barrier and returns the estimate at the current stream
// prefix, even while views are serving bounded-stale answers.
func (c *Concurrent) SnapshotNow() Estimate { return c.Snapshot() }

// Global returns the global triangle count estimate. While views are
// running (StartViews) it answers from the current epoch view — lock-free
// and barrier-free, stale by at most the publish interval; otherwise it
// pays one barrier at which the engines report their per-processor
// counters alone, copying no per-node state. Use SnapshotNow for a
// guaranteed-fresh value.
func (c *Concurrent) Global() float64 {
	if p := c.views.Load(); p != nil {
		return p.View().Global
	}
	return c.sh.GlobalEstimate().Global
}

// Local returns the local triangle count estimate for v (0 if the node
// was never seen or TrackLocal is off). While views are running it
// probes the current epoch view's flat class-sum tables instead of
// paying a barrier per call; otherwise it pays one barrier at which every
// engine reports v's class-sum entries alone.
func (c *Concurrent) Local(v NodeID) float64 {
	if p := c.views.Load(); p != nil {
		return p.View().LocalOf(v)
	}
	return c.sh.LocalOf(v)
}

// Locals returns the local estimate of every node that appeared in a
// sampled semi-triangle (nil unless TrackLocal). After deletions that
// includes nodes whose estimate has returned to 0. The map is freshly
// built and owned by the caller: from the current epoch view while views
// are running, from a fresh barrier otherwise.
func (c *Concurrent) Locals() map[NodeID]float64 {
	if p := c.views.Load(); p != nil {
		return p.View().Local()
	}
	return c.sh.Snapshot().Local
}

// Processed returns the number of non-loop events (insertions plus
// deletions) accepted so far, including events still buffered in flight.
func (c *Concurrent) Processed() uint64 { return c.sh.Processed() }

// Deleted returns the number of non-loop deletion events accepted so far
// (always 0 unless ConcurrentConfig.FullyDynamic).
func (c *Concurrent) Deleted() uint64 { return c.sh.Deleted() }

// SelfLoops returns the number of self-loop arrivals skipped.
func (c *Concurrent) SelfLoops() uint64 { return c.sh.SelfLoops() }

// SampledEdges returns the number of edges currently stored across all
// shards' logical processors (expected ≈ C·|E|/M), a memory diagnostic.
// It pays one barrier at which no engine copies its class sums.
func (c *Concurrent) SampledEdges() int { return c.sh.SampledEdges() }

// EtaSaturations reports how many per-edge closing-counter updates were
// clamped at the int32 boundary across all shards (see
// Estimator.EtaSaturations). It pays one barrier, like SampledEdges, at
// which no engine copies its class sums; views carry the same number per
// epoch (View.EtaSaturations).
func (c *Concurrent) EtaSaturations() uint64 { return c.sh.EtaSaturations() }

// Shards returns the effective number of engine shards.
func (c *Concurrent) Shards() int { return c.sh.Shards() }

// WriteSnapshot checkpoints every shard barrier-consistently into one
// multi-shard snapshot on w: all shard states, and the processed and
// self-loop tallies, describe exactly the same stream prefix. Safe for
// concurrent use with Add; edges added while the checkpoint is being
// taken land after it and are NOT in the snapshot. ResumeConcurrent with
// an equal ConcurrentConfig rebuilds an estimator that produces
// bit-for-bit identical estimates on any suffix stream.
func (c *Concurrent) WriteSnapshot(w io.Writer) error { return c.sh.WriteSnapshot(w) }

// ResumeConcurrent reads a snapshot written by Concurrent.WriteSnapshot
// and restores it into a new estimator built for cfg. The snapshot's
// fingerprint must match cfg's statistical fields (M, C, Seed,
// TrackLocal, TrackEta, FullyDynamic — and TrackDegrees, whose live-edge
// set is carried in the snapshot) and the effective shard count must
// equal the one cfg implies, because per-shard hash seeds derive from
// (Seed, shard index). Mismatches are rejected with an error wrapping
// ErrSnapshotMismatch.
func ResumeConcurrent(cfg ConcurrentConfig, r io.Reader) (*Concurrent, error) {
	ac := mem.New()
	scfg := cfg.shardConfig()
	scfg.Mem = ac
	sh, err := shard.Resume(scfg, r)
	if err != nil {
		return nil, fmt.Errorf("rept: %w", err)
	}
	return &Concurrent{sh: sh, cfg: cfg, tele: cfg.Telemetry, acct: ac}, nil
}

// Close stops the view publisher (when started), flushes pending edges,
// and releases the shard goroutines. The estimator must not be used after
// Close (uses panic); Close itself is idempotent but must not run
// concurrently with other methods. The last published view stays readable
// through a retained *Views handle even after Close.
//
// With a write-ahead log, Close ends with a group commit of everything
// appended but not yet synced. Close cannot report that commit's
// failure, so check WALStats().Failed afterwards: with a SyncInterval,
// the final commit is the only sync covering the events acknowledged in
// the last interval, and a set flag means they may not survive a crash.
func (c *Concurrent) Close() {
	if p := c.views.Load(); p != nil {
		p.Close()
	}
	// The compactor snapshots through the coordinator, so it must be
	// fully stopped before the coordinator shuts down.
	c.stopCompactor()
	c.sh.Close()
	if c.lg != nil {
		c.lg.Close()
	}
}

// Config returns the configuration the estimator was built with.
func (c *Concurrent) Config() ConcurrentConfig { return c.cfg }
