// Package rept is a Go implementation of REPT ("random edge partition and
// triangle counting"), the one-pass parallel streaming algorithm for
// approximating global and local (per-node) triangle counts from:
//
//	Pinghui Wang, Peng Jia, Yiyan Qi, Yu Sun, Jing Tao, Xiaohong Guan.
//	"REPT: A Streaming Algorithm of Approximating Global and Local
//	Triangle Counts in Parallel." ICDE 2019 (arXiv:1811.09136).
//
// REPT distributes the edges of a graph stream across c logical
// processors with a shared hash function so that each processor samples
// edges with probability p = 1/m, and estimates triangle counts from the
// semi-triangles each processor observes. The dependence between the
// processors' samples cancels the covariance term that dominates the
// error of naively parallelized samplers such as MASCOT and TRIÈST: for
// c = m the variance drops from (τ(m²−1)+2η(m−1))/c to τ(m−1).
//
// # Quick start
//
//	est, err := rept.New(rept.Config{M: 10, C: 10, Seed: 1, TrackLocal: true})
//	if err != nil { ... }
//	defer est.Close()
//	for _, e := range edges {
//		est.Add(e.U, e.V)
//	}
//	res := est.Result()
//	fmt.Println("triangles ≈", res.Global)
//
// # Concurrency model
//
// An Estimator is driven by ONE caller: Add must not be called from
// multiple goroutines. For ingestion from many goroutines — network
// handlers, partitioned readers — or over several cores, use
// NewConcurrent instead:
//
//	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 10, C: 40, Shards: 4, Seed: 1})
//	if err != nil { ... }
//	defer est.Close()
//	// any number of goroutines:
//	est.Add(u, v)
//	// any goroutine, any time:
//	snap := est.Snapshot()
//
// A Concurrent estimator spreads its C logical processors over
// independent engine shards (whole processor groups with independent hash
// seeds, the distributed layout of paper Section III-B) and broadcasts
// batched edges to them over one buffered channel per shard, in one
// ticket order for every consumer. Per-event Adds share one buffer under
// a mutex; callers that already hold many events fill a reusable Batch
// and call ApplyBatch (or ApplyBatchDurable with a WAL), which takes the
// mutex once and ships the batch as segments of at most 1024 events.
// Shards are the only parallelism: each engine runs single-threaded in
// its shard's goroutine. Snapshots are consistent — every shard reports
// at the same stream prefix — and its estimates follow the same
// distribution as a single-caller Estimator with equal M and C.
// cmd/reptserve wraps a Concurrent estimator in an HTTP service (NDJSON
// ingest, mid-stream estimate queries).
//
// # Fully-dynamic streams
//
// With Config.FullyDynamic (or ConcurrentConfig.FullyDynamic) the
// estimator accepts edge deletions — Delete, or Apply/ApplyAll with
// Update events — and every estimate tracks the NET triangle statistics
// of the live graph: what remains after follows and unfollows, flow
// arrivals and expiries. The stream contract is the usual fully-dynamic
// one: delete only edges that are currently live, insert only edges that
// are not.
//
// Semantics. Each deletion applies the exact signed inverse of the
// insertion update: the counters decrease by the number of
// semi-triangles the deletion un-closes against each processor's sampled
// set, and the edge leaves the sample if it was in it. Because the
// sampler is a fixed-probability hash partition (an edge's sample
// membership is a deterministic function of its key), the random-pairing
// compensation that reservoir samplers need for deletions (TRIÈST-FD)
// degenerates to the identity here — a deleted sampled edge's slot is
// re-filled exactly when its key re-arrives — so the unbiasing factors
// are unchanged and the estimator stays exactly unbiased for the net
// count under arbitrary well-formed churn. The d_i/d_o pairing counters
// are still tracked (Estimator.PairingStats) and carried by snapshots.
//
// What a delete of an unsampled edge means: nothing is removed (the edge
// was never stored), but the signed counter update still applies — the
// deletion un-closes semi-triangles whose other two edges are sampled.
// Individual per-processor counters can therefore go transiently
// negative, and on small samples even the aggregated estimate can dip
// below zero; it is not clamped, because clamping would bias it. A
// deletion of an edge that was NEVER inserted violates the stream
// contract: the engine stays deterministic and finite, counts the event
// in PairingStats.PhantomDeletes, and the estimate is no longer
// meaningful.
//
// Guarantees under churn: the global and local estimators are unbiased
// for the net counts at every prefix, and their variance satisfies the
// natural generalization of Theorem 3 (the closed forms with the
// same-pair and shared-edge signed masses in place of τ and 2η —
// validated empirically by TestAccuracyFullyDynamic). The η̂-based
// plug-in Variance and the Graybill–Deal combination weights use the
// insert-only formulas with the signed counters substituted; under heavy
// churn treat Variance as a diagnostic approximation rather than an
// exact error bar. Insert-only streams behave bit-identically whether
// FullyDynamic is on or off; the flag is part of the snapshot
// fingerprint.
//
// # Query views and staleness semantics
//
// Snapshot pays a full cross-shard barrier, which is exact but serializes
// against ingest — the wrong trade for query-heavy workloads (per-node
// lookups from many clients). StartViews decouples the two: a background
// publisher periodically takes ONE barrier and materializes an immutable
// epoch View (global estimate, variance, local counts, degrees,
// clustering coefficients, top-K ranking), published by an atomic pointer
// swap. Any number of readers then query the View lock-free and
// barrier-free while producers keep adding edges at full speed.
//
// Per-node state stays flat from the engine to the view, and an epoch
// costs in proportion to what changed. Each engine keeps its per-node
// sums by processor class (the c₁ full groups and the partial group, the
// only form the local estimator reads) in pointer-free graph.NodeTable
// arrays, updated on the same walk lines as each processor's own
// counters. Once the publisher's first observation reaches it, an engine
// also records every class-sum update in a small delta table. At each
// epoch's barrier the engines hand over their deltas and restart them,
// the new view's tables are graph.SumTables(previous view's tables,
// merged deltas), and the top-K ranks only the previous ranking plus the
// nodes the deltas touched. That is exact while no ranked node weakens,
// since τ̂_v depends only on v's own class sums and on M, C and the
// sample shift. The first epoch, one after a Downsample, one after a
// delta outgrew a quarter of the class sums, and one in which a ranked
// node weakened rebuild from every node instead. The View keeps the
// merged tables and evaluates τ̂_v when a reader probes a node (LocalOf,
// CC, Stat); Local and Degrees build a full map only when a caller asks
// for one. On the benchmark's read-mix workload (2 cores)
// flat tables cut an epoch's median publish time from about 100 ms to
// about 17 ms, and publishing deltas cut what remained about
// fourfold. Without views, Global, VarianceBound, SampledEdges,
// EtaSaturations and Local(v) pay a barrier at which no engine copies its
// class sums.
//
// The staleness contract: a View describes a consistent stream prefix
// that lags the live stream by at most roughly ViewConfig.Interval (plus
// one barrier latency), and SAYS which prefix — every View carries its
// Epoch sequence number, capture time (Age), and Processed count, so
// callers can always tell what they are looking at; with
// ViewConfig.EveryEdges the lag is additionally bounded in edges. An
// idle stream stops republishing (the view is already exact; only its
// wall-clock Age keeps growing). Reads through a View are monotone
// (epochs only move forward) but NOT read-your-writes: an edge added a
// moment ago appears only in the next epoch. Callers that need the
// current prefix use Views().Refresh() or SnapshotNow(), both of which
// pay the barrier. While views are running, Global, Local, and Locals
// answer from the current View under exactly these semantics.
//
// cmd/reptserve serves the view read path over HTTP — /estimate, /local,
// /topk (heavy hitters), /cc (clustering coefficients), /query (batch
// lookups, one epoch per batch), /stats, and Prometheus /metrics — with
// the epoch/age/prefix report embedded in every view-backed response and
// ?fresh=1 as the per-request escape hatch.
//
// Degree semantics: the degree table behind /cc and View.DegreeOf counts
// the LIVE graph, exactly like the sampled adjacency — a duplicate
// insertion of a live edge and a deletion of a non-live edge are both
// no-ops, filtered by a live-edge membership set (O(E) memory, carried
// by the opt-in tracker only). This keeps the clustering coefficient's
// denominator d·(d−1)/2 consistent with its sampled numerator τ̂_v on
// malformed streams, such as a client retry re-sending an edge.
// Checkpoints persist the live-edge set itself and a restore rebuilds
// the table from it, so a restored table filters exactly like one that
// never restarted.
//
// # Performance
//
// The per-event hot path runs on flat, cache-friendly structures and is
// allocation-free in steady state. Each logical processor's sampled
// adjacency is an arena of 32-byte, pointer-free neighbor-set entries
// addressed by slot, and each engine keeps one node dictionary — a
// NodeID → id table beside one node-major row per node holding its
// presence masks and, for every processor, a 16-bit neighbor signature
// and its slot — so an event probes a hash table once per endpoint,
// however many processors it visits. In a neighbor-set entry the first six neighbors live inline
// in the entry, larger sets move to a side store the entry indexes — a
// sorted slice intersected by merge/galloping walks, promoted past 32
// neighbors to an open-addressing hash set probed in O(1) (the inline →
// sorted → promoted ladder matches how degrees distribute under 1/m
// sampling: almost all nodes tiny, a few hubs hot). Holding no pointers
// keeps the arena off the garbage collector's scan list. Two hash tables
// serve every key: graph.NodeTable for NodeIDs (the dictionary, the class
// sums, the degree counters) and graph.EdgeTable for canonical 64-bit
// edge keys (the degree tracker's live edges, the per-edge η counters).
// Both probe linearly over parallel key and value slices, grow at 75%
// load and delete by backward shift, so churn leaves no tombstones. The
// η counters use saturating (never wrapping) int32 arithmetic; clamp
// events — possible only on adversarially hot edges — are surfaced as
// Estimator.EtaSaturations / Concurrent.EtaSaturations, per epoch on
// View.EtaSaturations, and over HTTP in /stats and /metrics. On the
// reference CI machine this rework took insert-only per-event cost from
// ~1.5 µs to ~0.63 µs and fully-dynamic churn from ~1.1 µs to ~0.41 µs
// (both ≥2×) at 0 allocs/op, with testing.AllocsPerRun gates and a
// committed bench/BENCH_<sha>.json trajectory (cmd/benchdiff fails CI on
// >25% per-event regression) keeping it that way.
//
// Every event, insertion or deletion, reaches the engine the same way.
// Batches travel from the producer to each shard's consumer as one
// channel message per segment, so the hand-off costs one channel
// operation per up to 1024 events, and each engine applies every event
// through one presence-mask walk: per-node processor-membership masks,
// one 64-bit word per 64 processors in the node's dictionary row, let
// the engine visit only each group's storing processor and the
// processors holding BOTH endpoints — any other processor cannot close a
// triangle on that event, and the one deletion tally it would advance
// (d_o) is derived instead of counted. A visited processor whose sample holds both
// endpoints almost never closes a triangle there (98 % of those
// intersections are empty on a power-law stream at M=10, C=20), and the
// signatures prove most of them empty before any neighbor set is read:
// each is the OR of one hashed bit per sampled neighbor, so two that
// share no bit have no common neighbor. That cut a power-law engine's
// per-event cost by about a third. Once the sampled graph outgrows the
// cache, most of what is left is waiting on a chain of dependent loads
// per event — dictionary probe, row, slot, neighbor-set entry — so an
// engine walks each batch in groups of eight events and stages each
// group first, one link of the chain at a time across the group: the
// misses of one link overlap instead of queueing, and the walks reuse
// what staging resolved.
// Estimates are bit-identical to visiting every processor (gated by tests
// against an all-processor reference walk), and steady-state ingest
// allocates nothing (gated by AllocsPerRun tests; the README lists
// measured per-event costs).
//
// # Durability
//
// Estimator state survives restarts through binary snapshots:
// Estimator.WriteSnapshot and Concurrent.WriteSnapshot persist the config
// fingerprint, every logical processor's sampled edge set, the full τ/η
// counter state (global and per-node), the degree tracker's live-edge set,
// and the processed/self-loop tallies; Resume and ResumeConcurrent rebuild
// an estimator that yields bit-for-bit identical estimates on any suffix
// stream. A Concurrent snapshot is barrier-consistent: every shard's
// state describes the same stream prefix, even while producers keep
// adding edges. Snapshots open with a magic string and the format
// version; there is one version, and readers reject every other. A
// restore is accepted only when the target configuration's statistical
// fields (M, C, Seed, TrackLocal, TrackEta, FullyDynamic — plus the shard
// count and TrackDegrees for ResumeConcurrent) match the snapshot's
// fingerprint; mismatches fail with an error wrapping ErrSnapshotMismatch
// that names each differing field.
//
// The write-ahead log directory is the one durable state a server
// keeps. ResumeDurable opens a Concurrent estimator on a segmented,
// CRC-checked log of accepted events (WALOptions: local-disk directory or
// any WALBackend), and ApplyBatchDurable (or ApplyAllDurable) returns
// only once the log acknowledges its events — fsynced in per-batch mode
// (zero loss window), appended in interval mode (loss window of at most
// the sync interval on power failure). Appends are group-committed by a
// dedicated logger goroutine off the allocation-free ingest hot path.
// The log folds itself into incremental checkpoints
// (WALOptions.CompactEvery, or CompactWAL on demand): a
// barrier-consistent snapshot becomes the recovery base and the sealed
// segments it covers are deleted, bounding replay time and disk usage.
// Recovery is snapshot-plus-tail — restore the log's checkpoint, replay
// the surviving records through the normal ingest path — and lands
// bit-for-bit on the acknowledged prefix: a torn final record is the
// expected shape of a crash and is dropped, while interior corruption,
// missing log stretches, and logs written under a different
// configuration are refused (ErrWALCorrupt, ErrWALGap, ErrWALMismatch).
// The checkpoint file, checkpoint.reptsnap, is a complete backup: copied
// alone into an empty directory — as is any Concurrent.WriteSnapshot
// image saved under that name — it recovers at its position, so backup
// and migration are a file copy. A write or sync failure is sticky: the
// failed batch (and every one after it) is refused rather than
// acknowledged, so "accepted" keeps meaning "recoverable". cmd/reptserve
// wires the layer to -wal-dir/-wal-sync/-wal-compact-every flags and
// POST /checkpoint (CompactWAL), reports positions and lag in /stats and
// /metrics, and its crash-kill harness SIGKILLs the real process
// mid-ingest and asserts zero acknowledged-event loss on restart.
//
// # Memory accounting and adaptive budgets
//
// Every flat storage layer under a Concurrent estimator — neighbor-set
// arenas, node dictionaries, counter tables, ingest queues, recycled batch
// buffers, the degree table, published query views, WAL buffers —
// reports its backing bytes to an atomic per-component ledger at
// capacity-change moments only (growth, rehash, spill promotion,
// eviction sweep), never per event: the ingest hot path stays
// allocation-free and ledger-silent while the ledger tracks the real
// footprint at capacity granularity. Concurrent.MemStats returns the
// breakdown, Concurrent.MemTotalBytes the cheap total; accounting is
// purely observational and estimates are bit-identical with it on or
// off. WAL segment bytes are tracked in the same ledger but classed as
// disk, excluded from the process-memory total.
//
// The ledger is what makes an online memory budget enforceable.
// Concurrent.Downsample halves the sampling probability
// stream-consistently across every shard — stored edges are re-tested
// under the thinned keep filter and evicted, counters are rescaled by
// the REPT unbiasing factor, and the surviving edges are placed into
// fresh structures so the bytes actually return. The global estimate
// stays unbiased at the effective partition size m_eff = M·2^shift
// (SampleShift, SampleProbability); its variance rises, and
// VarianceBound publishes the Theorem 3 bound at the current effective
// layout so the accuracy spent is always visible. Local estimates stay
// unbiased too: every per-node class sum is rescaled with stochastic
// rounding, whose expectation is exact, so one Downsample(1) keeps their
// sum at 1.000× (HolmeKim 20k nodes, M=10, C=40, 20 seeds; rounding each
// small per-processor counter half away from zero left 0.536×), and
// local counts, top-K and clustering coefficients stay on target.
// η-tracking configurations cannot rescale their per-edge closing
// counters and refuse with ErrEtaDownsample.
// cmd/reptserve wires the loop together under -mem-budget: an adaptive
// controller ticks against the ledger, downsamples one shift per tick
// above a soft watermark 10% under the budget — the sampled edge sets
// are REPT's memory, so the sampling probability is its one lever — and
// at the hard budget also sheds ingest with HTTP 429 + Retry-After
// (queries and readiness keep serving), reporting every state
// transition through /stats, /readyz, and /metrics. A successful
// Downsample publishes a fresh view epoch while views run, and leaves a
// downsample event in the flight recorder when telemetry is attached.
//
// # Observability
//
// NewTelemetry builds the estimator's observability bundle — a
// dependency-free metrics registry preloaded with latency histograms
// for every pipeline stage (NDJSON parse, shard dispatch, queue wait,
// engine apply, barrier, WAL append and fsync, view publish), per-shard
// queue-depth/batch/throughput series, Go runtime health series, and a
// lock-free flight recorder of recent pipeline events — and
// ConcurrentConfig.Telemetry attaches it before construction. The
// record path is zero-allocation (enforced by AllocsPerRun gates and
// the hotpathalloc analyzer) and nil-guarded, so an uninstrumented
// estimator pays one branch per site and an instrumented one stays
// within 5% of it (gated in CI). Telemetry.WritePrometheus renders the
// text exposition format that cmd/reptserve serves on /metrics, next to
// /debug/flight (the flight-recorder dump) and /readyz (readiness, as
// distinct from /healthz liveness); the format is round-trip checked by
// the conformance parser in internal/obs.
//
// # Static analysis
//
// The invariants above — allocation-free hot paths, deterministic map
// iteration in snapshot/merge code, saturating (never wrapping) counter
// arithmetic, epoch views that are re-loaded rather than cached, and no
// blocking operations under the sharded ingest mutex — are enforced by
// a bundled static-analysis suite, not just by tests. Functions, types,
// and fields opt in with //rept: directives (hotpath, deterministic,
// satcounter, viewholder, ingestmu, and their escape hatches), and
// `go run ./cmd/reptvet ./...` type-checks the module and reports every
// violation; CI runs it as a required gate. See internal/analysis and
// the README's "Static analysis" section.
//
// The package also exposes the baselines the paper compares against
// (NewMascot, NewTriest, NewGPS, and NewParallel for the "c independent
// instances" parallelization), exact counting for ground truth
// (ExactCount), and the paper's closed-form variance expressions
// (TheoreticalVariance, ParallelMascotVariance).
//
// Reproduction of the paper's tables and figures lives in cmd/reptbench
// and the root-level benchmarks; see the internal/exper package
// documentation for the experiment index and the dataset analogs.
package rept
