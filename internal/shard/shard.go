// Package shard provides a concurrency-safe ingest layer over the REPT
// core engine.
//
// A Sharded coordinator owns N independent core.Engine shards. Each shard
// hosts a disjoint slice of the configured logical processors (whole
// processor groups, so the standard c = c₁·m + c₂ layout is preserved)
// and derives its hash family from its own splitmix64-derived seed, which
// keeps the groups mutually independent across shards as paper Section
// III-B requires. Every edge is broadcast to every shard — REPT shards by
// processor group, not by edge — so a snapshot merges the per-shard
// counters through core.MergeGroups into an estimate that is statistically
// identical to a single engine with the concatenated processor list.
//
// Unlike core.Engine, whose Add must be driven by one caller, Sharded.Add
// is safe for any number of goroutines: producers append to a shared batch
// under the ingest mutex, and full batches are handed to every consumer
// goroutine (the engine shards, the degree tracker, the WAL logger) over
// one buffered channel each, sent inside the same critical section, so
// every consumer sees the sequence in which the critical sections ran. A
// hand-off carries a whole batch, so its cost is paid per batch, not per
// event. The shard goroutines are the only parallelism: each engine runs
// single-threaded in its own. Snapshots use an in-band barrier message so
// every shard reports its counters at exactly the same stream prefix,
// without stopping ingestion for longer than a flush. Durability is
// tracked in stream positions, the count of accepted events that
// Processed reports and the write-ahead log addresses its records by, so
// a durable producer waits for the log to reach the position one past its
// last event.
//
// ApplyBatch is the one bulk producer: a caller batch becomes a few
// segments of at most BatchSize events, detached and sent in one critical
// section, so locking, degree tracking, and barrier bookkeeping are paid
// per segment rather than per event. Every shard engine applies every
// delivery through core.Engine's presence-mask walk, which visits only
// the processors that can actually see a triangle.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"time"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/hashing"
	"rept/internal/mem"
	"rept/internal/obs"
	"rept/internal/snapshot"
)

// Accounted sizes of the flat ingest structures: one queue slot and one
// batch-buffer event. Both are reported to the byte ledger only at
// construction / recycle transitions, never on the per-event path.
const (
	msgBytes    = int64(unsafe.Sizeof(msg{}))
	updateBytes = int64(unsafe.Sizeof(graph.Update{}))
)

const (
	defaultBatchLen = 1024
	defaultQueueLen = 8
)

// Config parameterizes a Sharded coordinator.
type Config struct {
	// M is the sampling denominator (p = 1/M), as core.Config.M.
	M int
	// C is the TOTAL number of logical processors across all shards.
	C int
	// Shards is the number of independent engine shards. Values <= 0
	// default to the number of processor groups (capped at 8); the value
	// is always capped at the group count, since shards own whole groups.
	Shards int
	// Seed drives every shard's hash family deterministically: shard i
	// uses the i-th value of a splitmix64 chain over Seed, so distinct
	// shards get distinct, independent families.
	Seed int64
	// TrackLocal enables per-node estimates on every shard.
	TrackLocal bool
	// FullyDynamic enables signed streams on every shard: Delete and
	// deletion-bearing ApplyBatch. Part of the snapshot fingerprint, like
	// the other statistical flags.
	FullyDynamic bool
	// TrackEta forces η bookkeeping on every shard. It is enabled
	// automatically when the merged layout requires η̂ (C > M with
	// C % M != 0), so the merged estimate uses the paper's Algorithm 2
	// combination exactly as a single engine would.
	TrackEta bool
	// TrackDegrees maintains a per-node degree table alongside the shards:
	// a dedicated tracker goroutine receives the same edge broadcast and
	// keeps the live graph's degrees, so barrier snapshots can report
	// degrees at exactly the same stream prefix as the estimates. Needed
	// for clustering-coefficient queries; costs O(V + E) memory (the
	// live-edge set, which checkpoints carry).
	TrackDegrees bool
	// BatchSize is the ingest hand-off batch length: Add appends under a
	// mutex and broadcasts every full batch, and ApplyBatch ships segments
	// of at most this many events. QueueLen is each consumer's channel
	// depth in batches; producers block once a consumer falls this far
	// behind (backpressure). Zero selects 1024 and 8. Neither changes an
	// estimate; the public layer leaves both at zero, and tests set them
	// to force tiny segments and full queues.
	BatchSize, QueueLen int
	// Obs attaches pipeline telemetry: dispatch/queue-wait/apply/barrier
	// stage histograms, per-shard queue-depth and events-applied series,
	// and flight-recorder events. Nil disables instrumentation at zero
	// cost on the per-event path. Obs is operational state, NOT part of
	// the snapshot fingerprint — a snapshot taken with telemetry on
	// restores into a coordinator with it off and vice versa.
	Obs *obs.Pipeline
	// Mem, when non-nil, is the byte ledger the coordinator keeps for
	// the storage under it: each shard goroutine moves the adjacency,
	// masks and counters entries to its engine's core.Engine.Footprint
	// after every batch and barrier, the degree tracker reconciles the
	// degree table the same way, and the ingest queues and recycled batch
	// buffers are charged when built or dropped. Purely observational —
	// estimates are bit-identical with or without it — and, like Obs,
	// operational state outside the snapshot fingerprint.
	Mem *mem.Accountant
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error { return (core.Config{M: c.M, C: c.C}).Validate() }

// groups returns the number of processor groups of the merged layout.
func (c Config) groups() int {
	g := c.C / c.M
	if c.C%c.M != 0 {
		g++
	}
	return g
}

// shardCount resolves the effective shard count.
func (c Config) shardCount() int {
	n := c.Shards
	if n <= 0 {
		n = c.groups()
		if n > 8 {
			n = 8
		}
	}
	if g := c.groups(); n > g {
		n = g
	}
	return n
}

// shardConfigs partitions the C logical processors over n shards as whole
// groups: full groups are spread round-robin and the trailing partial
// group (C % M processors) always lands on the last shard, so the
// concatenated processor list keeps the canonical c = c₁·m + c₂ layout
// that core.MergeGroups requires. Seeds come from a splitmix64 chain over
// cfg.Seed, one per shard, mirroring how a single engine derives one seed
// per group.
func (c Config) shardConfigs() []core.Config {
	n := c.shardCount()
	c1 := c.C / c.M // full groups
	c2 := c.C % c.M // processors in the trailing partial group
	trackEta := c.TrackEta || (c1 > 0 && c2 > 0)

	state := uint64(c.Seed)
	out := make([]core.Config, n)
	for i := range out {
		full := c1 / n
		if i < c1%n {
			full++
		}
		procs := full * c.M
		if i == n-1 {
			procs += c2
		}
		out[i] = core.Config{
			M:            c.M,
			C:            procs,
			Seed:         int64(hashing.SplitMix64(&state)),
			TrackLocal:   c.TrackLocal,
			FullyDynamic: c.FullyDynamic,
			TrackEta:     trackEta,
		}
	}
	return out
}

// batch is a broadcast update buffer shared read-only by all shards; the
// last shard to release it returns it to the pool. Every producer detaches
// it once it holds BatchSize events, so it never outgrows the capacity it
// was allocated (and accounted) with. Insert-only streams fill it with
// Del == false events.
type batch struct {
	ups  []graph.Update
	refs atomic.Int32
}

// barrier carries work to every consumer at one stream prefix. Consumers
// take their channels in order, so the work sees exactly the edges
// broadcast before the barrier was enqueued, on every shard alike.
type barrier struct {
	// engine runs on every engine shard's goroutine with the shard's index
	// and engine, and degrees, when non-nil, on the degree tracker's with
	// its table. Each writes its results where its caller reads them once
	// the barrier returns, shard i only to its own slot. Only Observe and
	// checkpoints read the degree table: it tracks the full stream,
	// untouched by resampling.
	engine  func(i int, eng *core.Engine)
	degrees func(*graph.DegreeTable)
	// processed, deleted, and selfLoops are the coordinator tallies
	// captured while the barrier was enqueued (under the ingest mutex),
	// so they match the stream prefix the shard reports describe.
	processed, deleted, selfLoops uint64
	wg                            sync.WaitGroup
}

// msg is one item of a consumer queue: either an edge batch or a
// barrier.
type msg struct {
	b   *batch
	bar *barrier
}

// Sharded is a concurrency-safe REPT front end over N engine shards. All
// exported methods except Close may be called from any number of
// goroutines; Add after Close panics with core.ErrClosed.
type Sharded struct {
	cfg      Config
	batchLen int
	queueLen int

	engines []*core.Engine
	// queues holds one hand-off channel per broadcast consumer: engine
	// shard i reads queues[i], the degree tracker (with TrackDegrees) the
	// next one, and the WAL logger, appended by StartWAL, the last. Every
	// consumer receives the same batch/barrier sequence.
	queues []chan msg
	// wal is the durable-mode bookkeeping; nil until StartWAL.
	wal *walRunner

	// mu guards cur, closed, queues, and the fan-out. It is the ingest
	// critical section every producer, barrier, and Close passes through,
	// and each sends what it detached to every consumer queue before
	// unlocking, so every consumer receives the messages in the order the
	// critical sections ran. A send to a full queue blocks under mu: that
	// is the backpressure, and it cannot deadlock, because no consumer
	// (engine shard, degree tracker, WAL logger, barrier work) takes mu.
	mu     sync.Mutex
	cur    *batch
	closed bool

	// free recycles broadcast batch buffers. A buffered channel rather
	// than a sync.Pool: batches are always released by a shard goroutine
	// and reacquired by a producer — the cross-P handoff pattern where
	// per-P pool caches systematically miss — and the channel makes the
	// steady state deterministically allocation-free. Sized past the
	// maximum number of batches in flight (shard queue depth plus the one
	// being filled and the ones being processed), so releases virtually
	// never find it full; a full free list just drops the batch to the GC.
	free chan *batch
	done sync.WaitGroup

	processed atomic.Uint64
	deleted   atomic.Uint64
	selfLoops atomic.Uint64

	// sampleShift is the coordinator-level cumulative down-shift, advanced
	// by Downsample after every shard adapted; read lock-free by the
	// control plane.
	sampleShift atomic.Int64

	// acct is the optional byte ledger (Config.Mem); nil-safe throughout.
	// The engines reach it only through reconcile.
	acct *mem.Accountant

	// obs is the optional pipeline telemetry (Config.Obs); batchEv and
	// applied hold the per-shard last-batch-size gauges and events-applied
	// counters, indexed like engines. All are nil when telemetry is off.
	obs     *obs.Pipeline
	batchEv []*obs.Gauge
	applied []*obs.Counter
}

// New builds a Sharded coordinator and starts its shard goroutines.
func New(cfg Config) (*Sharded, error) {
	return build(cfg, nil, nil)
}

// build constructs the coordinator, restoring each shard engine from the
// corresponding state when restore is non-nil (see Resume). liveEdges
// seeds the degree tracker; it is only meaningful with Config.TrackDegrees.
func build(cfg Config, restore []snapshot.EngineState, liveEdges []graph.Edge) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	batchLen := cfg.BatchSize
	if batchLen <= 0 {
		batchLen = defaultBatchLen
	}
	queueLen := cfg.QueueLen
	if queueLen <= 0 {
		queueLen = defaultQueueLen
	}

	sub := cfg.shardConfigs()
	if restore != nil && len(restore) != len(sub) {
		return nil, fmt.Errorf("shard: %d restore states for %d shards", len(restore), len(sub))
	}
	s := &Sharded{
		cfg:      cfg,
		batchLen: batchLen,
		queueLen: queueLen,
		engines:  make([]*core.Engine, len(sub)),
		acct:     cfg.Mem,
	}
	s.free = make(chan *batch, queueLen+8)
	for i, sc := range sub {
		var eng *core.Engine
		var err error
		if restore != nil {
			eng, err = core.RestoreEngine(sc, &restore[i])
		} else {
			eng, err = core.NewEngine(sc)
		}
		if err != nil {
			for _, prev := range s.engines[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.engines[i] = eng
		s.queues = append(s.queues, s.newQueue())
	}
	// Restored shards carry their snapshot's sample shift; they must agree
	// (they were checkpointed at one barrier) for merged estimates to be
	// well-defined.
	shift := s.engines[0].SampleShift()
	for i, eng := range s.engines[1:] {
		if eng.SampleShift() != shift {
			for _, prev := range s.engines {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: %w: shard %d has sample shift %d, shard 0 has %d", snapshot.ErrCorrupt, i+1, eng.SampleShift(), shift)
		}
	}
	s.sampleShift.Store(int64(shift))
	if cfg.Obs != nil {
		s.obs = cfg.Obs
		s.batchEv = make([]*obs.Gauge, len(s.engines))
		s.applied = make([]*obs.Counter, len(s.engines))
		for i := range s.engines {
			lbl := obs.ShardLabel(i)
			q := s.queues[i]
			s.obs.ShardQueueDepth.Func(lbl, func() float64 { return float64(len(q)) })
			s.batchEv[i] = s.obs.ShardBatchEvents.With(lbl)
			s.applied[i] = s.obs.ShardApplied.With(lbl)
		}
	}
	s.cur = s.getBatch()
	s.done.Add(len(s.engines))
	for i, eng := range s.engines {
		// A restored engine's sample is on the ledger before Resume
		// returns, not only after the first batch.
		go s.run(i, s.queues[i], s.reconcile(eng, core.Footprint{}))
	}
	if cfg.TrackDegrees {
		table := graph.NewDegreeTable()
		for _, e := range liveEdges {
			table.AddEdge(e.U, e.V)
		}
		// A restored live-edge set is O(E): charge it now rather than at
		// the first batch, so the ledger is right from the moment a
		// restored estimator is handed out.
		fp := table.FootprintBytes()
		s.acct.Add(mem.CompDegrees, fp)
		q := s.newQueue()
		s.queues = append(s.queues, q)
		s.done.Add(1)
		go s.runDegrees(q, table, fp)
	}
	return s, nil
}

// newQueue builds one consumer's hand-off channel and charges its buffer
// to the byte ledger (a channel's capacity is fixed, so construction is
// the only accounting moment).
func (s *Sharded) newQueue() chan msg {
	q := make(chan msg, s.queueLen)
	s.acct.Add(mem.CompRings, int64(cap(q))*msgBytes)
	return q
}

// getBatch returns a recycled batch buffer, allocating only when the
// free list is empty (start-up, or bursts beyond the in-flight bound).
// It runs under the ingest mutex; the select is non-blocking.
func (s *Sharded) getBatch() *batch {
	select {
	case b := <-s.free:
		return b
	default:
		s.acct.Add(mem.CompBatches, int64(s.batchLen)*updateBytes)
		return &batch{ups: make([]graph.Update, 0, s.batchLen)}
	}
}

// putBatch recycles a fully released batch buffer, crediting back
// buffers the full free list drops to the GC.
func (s *Sharded) putBatch(b *batch) {
	b.ups = b.ups[:0]
	select {
	case s.free <- b:
	default: // free list full: let the GC have it
		s.acct.Add(mem.CompBatches, -int64(s.batchLen)*updateBytes)
	}
}

// runDegrees is the degree tracker goroutine: it consumes the same
// batch/barrier sequence as the engine shards, so the table it copies into
// each barrier describes exactly the barrier's stream prefix. acBytes is
// the table footprint last reported to the ledger, reconciled against
// FootprintBytes once per batch rather than hooked at growth.
func (s *Sharded) runDegrees(q <-chan msg, table *graph.DegreeTable, acBytes int64) {
	defer s.done.Done()
	for m := range q {
		if m.bar != nil {
			if m.bar.degrees != nil {
				m.bar.degrees(table)
			}
			m.bar.wg.Done()
			continue
		}
		for _, up := range m.b.ups {
			table.ApplyUpdate(up)
		}
		if fp := table.FootprintBytes(); fp != acBytes {
			s.acct.Add(mem.CompDegrees, fp-acBytes)
			acBytes = fp
		}
		if m.b.refs.Add(-1) == 0 {
			s.putBatch(m.b)
		}
	}
}

// fanout returns the number of broadcast consumers (engine shards plus
// the degree tracker and the WAL goroutine when enabled).
func (s *Sharded) fanout() int { return len(s.queues) }

// reconcile moves the ledger's adjacency, masks and counters entries by
// the change in eng's footprint since fp, the footprint last reported,
// and returns the new one. Only the goroutine that owns eng calls it
// once eng runs.
func (s *Sharded) reconcile(eng *core.Engine, fp core.Footprint) core.Footprint {
	if s.acct == nil {
		return fp
	}
	now := eng.Footprint()
	s.acct.Add(mem.CompAdjacency, now.Adjacency-fp.Adjacency)
	s.acct.Add(mem.CompMasks, now.Masks-fp.Masks)
	s.acct.Add(mem.CompCounters, now.Counters-fp.Counters)
	return now
}

// run is the shard goroutine: it drains shard i's queue, feeding edge
// batches to the shard engine's walk and answering barriers in stream
// order. fp is the engine footprint on the ledger; it is reconciled after
// every batch and every barrier, before the barrier is marked done, so a
// barrier's caller reads a ledger exact for the barrier's prefix.
func (s *Sharded) run(i int, q <-chan msg, fp core.Footprint) {
	defer s.done.Done()
	eng := s.engines[i]
	for m := range q {
		if bar := m.bar; bar != nil {
			bar.engine(i, eng)
			fp = s.reconcile(eng, fp)
			bar.wg.Done()
			continue
		}
		if s.obs != nil {
			start := time.Now()
			eng.ApplyBatch(m.b.ups)
			d := time.Since(start)
			s.obs.Apply.ObserveDuration(d)
			// Self-loops never enter a batch, so its length is exactly
			// the events the engine applied.
			s.applied[i].Add(uint64(len(m.b.ups)))
			s.batchEv[i].SetInt(len(m.b.ups))
			s.obs.Flight.Record(obs.KindApply, int32(i), uint64(len(m.b.ups)), d)
		} else {
			eng.ApplyBatch(m.b.ups)
		}
		fp = s.reconcile(eng, fp)
		if m.b.refs.Add(-1) == 0 {
			s.putBatch(m.b)
		}
	}
	eng.Close()
}

// Add feeds one stream edge insertion. Safe for concurrent use;
// self-loops are skipped. Add panics with core.ErrClosed after Close.
func (s *Sharded) Add(u, v graph.NodeID) {
	s.apply(graph.Update{U: u, V: v})
}

// Delete feeds one stream edge deletion. It requires Config.FullyDynamic
// and panics with core.ErrNotDynamic otherwise. Safe for concurrent use.
func (s *Sharded) Delete(u, v graph.NodeID) {
	if !s.cfg.FullyDynamic {
		panic(core.ErrNotDynamic)
	}
	s.apply(graph.Update{U: u, V: v, Del: true})
}

// apply appends one event under the ingest mutex; a batch that fills
// detaches and is sent inside the same critical section.
//
//rept:hotpath
func (s *Sharded) apply(up graph.Update) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(core.ErrClosed)
	}
	if up.U == up.V {
		s.selfLoops.Add(1)
		s.mu.Unlock()
		return
	}
	s.cur.ups = append(s.cur.ups, up)
	// Counted before the unlock so a concurrent Snapshot can never
	// reflect an event that Processed does not yet count.
	s.processed.Add(1)
	if up.Del {
		s.deleted.Add(1)
	}
	if len(s.cur.ups) >= s.batchLen {
		s.sendLocked(s.detachLocked())
	}
	s.mu.Unlock()
}

// ApplyBatch feeds a slice of signed stream events in order — the one
// bulk producer. Under one critical section it appends the call's events
// behind whatever earlier per-event Adds left in the shared buffer,
// detaches the buffer every BatchSize events and once more at the end,
// and sends the detached segments, so the call ships as segments of at
// most BatchSize events and nothing it accepted waits in the buffer after
// it returns. Each segment travels every consumer queue as one message
// and is applied by each shard engine through its presence-mask walk.
//
// Self-loops are skipped (and tallied) like everywhere else. Deletion
// events require Config.FullyDynamic and panic with core.ErrNotDynamic
// before any event is accepted. Safe for concurrent use; panics with
// core.ErrClosed after Close.
func (s *Sharded) ApplyBatch(ups []graph.Update) { s.ingest(ups) }

// ingest is ApplyBatch's body. It returns the stream position one past
// the call's last event — the log position a durable caller waits on —
// and the WAL runner to wait with, nil until StartWAL.
func (s *Sharded) ingest(ups []graph.Update) (uint64, *walRunner) {
	var (
		accepted, dels, loops uint64
		buf                   [8]msg
	)
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	if !s.cfg.FullyDynamic {
		for _, up := range ups {
			if up.Del {
				panic(core.ErrNotDynamic)
			}
		}
	}
	// Segments collect on the stack (a bulk call that detaches more than
	// eight spills to the heap) and are sent once the append loop is done,
	// still inside the critical section.
	full := buf[:0]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(core.ErrClosed)
	}
	for _, up := range ups {
		if up.U == up.V {
			loops++
			continue
		}
		s.cur.ups = append(s.cur.ups, up)
		accepted++
		if up.Del {
			dels++
		}
		if len(s.cur.ups) >= s.batchLen {
			full = append(full, s.detachLocked())
		}
	}
	if len(s.cur.ups) > 0 {
		full = append(full, s.detachLocked())
	}
	// The shared buffer is empty now, so everything this call accepted
	// sits below the position it leaves Processed at, in batches sent to
	// every consumer, the WAL logger included. Tallies are credited under
	// the lock: barrier-consistency of snapshots versus Processed is what
	// aligns checkpoint positions with the log.
	pos := s.processed.Add(accepted)
	s.deleted.Add(dels)
	s.selfLoops.Add(loops)
	for _, m := range full {
		s.sendLocked(m)
	}
	w := s.wal
	s.mu.Unlock()
	if s.obs != nil {
		// Dispatch covers batching, the wait for the ingest lock, and the
		// fan-out; a durable caller's wait is accounted to the WAL
		// append/fsync histograms instead.
		d := time.Since(start)
		s.obs.Dispatch.ObserveDuration(d)
		s.obs.Flight.Record(obs.KindDispatch, -1, accepted, d)
	}
	return pos, w
}

// detachLocked installs a fresh buffer and returns the filled current
// batch as a message for every consumer. Caller holds s.mu and
// guarantees the batch is non-empty.
func (s *Sharded) detachLocked() msg {
	b := s.cur
	b.refs.Store(int32(s.fanout()))
	s.cur = s.getBatch()
	return msg{b: b}
}

// sendLocked delivers m to every consumer queue. Caller holds s.mu, so
// the sequence every consumer sees is the order the ingest critical
// sections ran in. A send may block on a backed-up consumer while the
// lock is held; that is the backpressure every producer shares.
func (s *Sharded) sendLocked(m msg) {
	var start time.Time
	events := -1
	if s.obs != nil {
		start = time.Now()
		// Read before the sends: once a consumer holds the batch, the
		// last one to release it recycles the buffer.
		if m.b != nil {
			events = len(m.b.ups)
		}
	}
	for _, q := range s.queues {
		q <- m
	}
	if s.obs != nil {
		// Queue wait covers the (possibly backpressured) channel sends.
		s.obs.QueueWait.ObserveSince(start)
		if events >= 0 {
			s.obs.BatchSizes.Observe(uint64(events))
		}
	}
}

// barrier flushes pending edges and sends bar immediately after them in
// one critical section, so no later Add can slip between the flush and
// the barrier on any shard. It returns bar once every consumer has run
// its work.
func (s *Sharded) barrier(bar *barrier) *barrier {
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic(core.ErrClosed)
	}
	if len(s.cur.ups) > 0 {
		s.sendLocked(s.detachLocked())
	}
	// The tallies are only mutated under s.mu, so this read is exactly
	// consistent with the prefix sent so far: every credited event sits in
	// a batch queued ahead of the barrier.
	bar.processed = s.processed.Load()
	bar.deleted = s.deleted.Load()
	bar.selfLoops = s.selfLoops.Load()
	bar.wg.Add(s.fanout())
	s.sendLocked(msg{bar: bar})
	s.mu.Unlock()
	bar.wg.Wait()
	if s.obs != nil {
		d := time.Since(start)
		s.obs.Barrier.ObserveDuration(d)
		s.obs.Flight.Record(obs.KindBarrier, -1, bar.processed, d)
	}
	return bar
}

// merge combines the shards' reports of one barrier.
func merge(aggs []*core.Aggregates) *core.Aggregates {
	agg, err := core.MergeGroups(aggs...)
	if err != nil {
		// shardConfigs guarantees the MergeGroups preconditions (equal M,
		// full groups on all but the last shard), so this is a bug.
		panic(fmt.Sprintf("shard: merge of own shards failed: %v", err))
	}
	return agg
}

// each runs read on every engine at one barrier and returns the results
// in shard order.
func each[T any](s *Sharded, read func(*core.Engine) T) []T {
	out := make([]T, len(s.engines))
	s.barrier(&barrier{engine: func(i int, eng *core.Engine) { out[i] = read(eng) }})
	return out
}

// sum adds up the shards' tallies.
func sum[T int | uint64](xs []T) T {
	var n T
	for _, x := range xs {
		n += x
	}
	return n
}

// Aggregates drains in-flight edges and merges every shard's counters,
// with copies of the whole class-sum tables, at a single consistent
// stream prefix. The coordinator stays usable.
func (s *Sharded) Aggregates() *core.Aggregates {
	return merge(each(s, (*core.Engine).Aggregates))
}

// GlobalEstimate drains in-flight edges and evaluates the merged global
// estimate at a consistent stream prefix. The engines report their
// per-processor counters alone, so the barrier copies no per-node state.
func (s *Sharded) GlobalEstimate() core.Estimate {
	return merge(each(s, (*core.Engine).ProcCounters)).GlobalEstimate()
}

// LocalOf drains in-flight edges and returns τ̂_v at a consistent stream
// prefix: each engine reports only v's class-sum entries.
func (s *Sharded) LocalOf(v graph.NodeID) float64 {
	return merge(each(s, func(eng *core.Engine) *core.Aggregates { return eng.NodeCounters(v) })).LocalOf(v)
}

// Snapshot drains in-flight edges and returns the merged REPT estimate at
// a consistent stream prefix. Safe for concurrent use with Add; edges
// added while the snapshot is being taken land after it.
func (s *Sharded) Snapshot() core.Estimate {
	return s.Aggregates().Estimate()
}

// SampledEdges reports the total number of edges currently stored across
// all shards' logical processors (expected ≈ C·|E|/M), a memory
// diagnostic. It drains in-flight edges like Snapshot but copies no
// per-node state.
func (s *Sharded) SampledEdges() int {
	return sum(each(s, (*core.Engine).SampledEdges))
}

// EtaSaturations reports how many per-edge closing-counter updates were
// clamped at the int32 boundary across all shards (see
// core.Engine.EtaSaturations). It drains in-flight edges like Snapshot
// but copies no per-node state.
func (s *Sharded) EtaSaturations() uint64 {
	return sum(each(s, (*core.Engine).EtaSaturations))
}

// Downsample halves the sampling probability extra more times on every
// shard engine, at one consistent stream prefix: the request travels the
// queues as an in-band barrier, so each shard re-partitions after exactly
// the edges broadcast before the call and merged estimates stay
// well-defined (equal shift on every shard, which MergeGroups enforces).
// See core.Engine.Downsample for the statistical contract. It fails with
// core.ErrEtaDownsample on η-tracking configurations — validated up
// front, before any shard is touched. Safe for concurrent use with
// ingest; events accepted after the call see the tightened filter. With
// telemetry attached, each successful call leaves one downsample flight
// event carrying the new cumulative shift and the barrier's wall time.
func (s *Sharded) Downsample(extra int) error {
	if extra <= 0 {
		return fmt.Errorf("shard: Downsample(%d): extra must be >= 1", extra)
	}
	c1, c2 := s.cfg.C/s.cfg.M, s.cfg.C%s.cfg.M
	if s.cfg.TrackEta || (c1 > 0 && c2 > 0) {
		return core.ErrEtaDownsample
	}
	start := time.Now()
	for _, err := range each(s, func(eng *core.Engine) error { return eng.Downsample(extra) }) {
		if err != nil {
			return err
		}
	}
	shift := s.sampleShift.Add(int64(extra))
	if s.obs != nil {
		s.obs.Flight.Record(obs.KindDownsample, -1, uint64(shift), time.Since(start))
	}
	return nil
}

// SampleShift returns the coordinator's cumulative sample down-shift:
// the effective sampling probability is 1/(M·2^shift). Lock-free.
func (s *Sharded) SampleShift() int { return int(s.sampleShift.Load()) }

// Processed returns the number of non-loop events (insertions plus
// deletions) accepted so far, including events still buffered in flight:
// the coordinator's stream position, the quantity snapshots persist and
// the write-ahead log addresses its records by. A coordinator restored
// from a snapshot at position P and fed the events at positions ≥ P
// reproduces the original bit for bit.
func (s *Sharded) Processed() uint64 { return s.processed.Load() }

// Deleted returns the number of non-loop deletion events accepted so far
// (always 0 unless Config.FullyDynamic).
func (s *Sharded) Deleted() uint64 { return s.deleted.Load() }

// SelfLoops returns the number of self-loop arrivals skipped.
func (s *Sharded) SelfLoops() uint64 { return s.selfLoops.Load() }

// Shards returns the effective number of engine shards.
func (s *Sharded) Shards() int { return len(s.engines) }

// Close flushes pending edges, stops the shard goroutines, and closes the
// underlying engines. Close is idempotent; any other method called after
// Close panics with core.ErrClosed.
func (s *Sharded) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if len(s.cur.ups) > 0 {
		s.sendLocked(s.detachLocked())
	}
	s.closed = true
	// Every send runs under s.mu, so none is in flight once closed is set.
	// The WAL goroutine group-commits whatever is still unsynced before
	// exiting.
	for _, q := range s.queues {
		close(q)
	}
	s.mu.Unlock()
	s.done.Wait()
}
