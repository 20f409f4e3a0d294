package query

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/mem"
	"rept/internal/obs"
	"rept/internal/shard"
)

// Defaults applied by NewPublisher for zero Config fields.
const (
	// DefaultInterval is the publish interval when Config.Interval is 0.
	DefaultInterval = 200 * time.Millisecond
	// DefaultTopK is the precomputed ranking size when Config.TopK is 0.
	DefaultTopK = 100
)

// Config shapes a Publisher.
type Config struct {
	// Interval is the maximum time between epoch publications while edges
	// are arriving (default DefaultInterval); a view's staleness is then
	// bounded by roughly Interval plus one barrier latency. Idle streams
	// publish nothing — see loop.
	Interval time.Duration
	// TopK is the size of the precomputed heavy-hitter ranking (default
	// DefaultTopK; meaningless without local tracking), fixed for the
	// publisher's life.
	TopK int
	// Obs, when non-nil, receives the latency of every epoch
	// materialization (barrier snapshot + view build + atomic swap) in
	// its ViewPublish histogram, and one view_publish flight event per
	// epoch (value = the epoch number), marked with the cause when the
	// epoch ranked every node (see Publisher). Nil records nothing.
	Obs *obs.Pipeline
	// Mem, when non-nil, receives the published view's payload bytes under
	// mem.CompViews, reconciled at every epoch swap. Only the CURRENT view
	// is charged — superseded views a reader still retains are that
	// reader's liability. Observational only.
	Mem *mem.Accountant
}

// Source is the ingest side a Publisher reads from; *shard.Sharded
// implements it. Observe must be barrier-consistent and safe for
// concurrent use with ingest; Processed must be a cheap monotone counter.
// Observe answers with a delta — class sums holding only the updates
// since the previous Observe (see shard.Sharded.Observe) — except the
// first time, after a Downsample and after StopDeltas, when it carries
// whole class sums. StopDeltas is the Publisher's last call, so a Source
// serves one Publisher at a time: each Observe takes the delta the
// previous one restarted.
type Source interface {
	Observe() shard.Observation
	StopDeltas()
	Processed() uint64
}

// Publisher periodically materializes epoch views from a Source and
// publishes them with an atomic pointer swap. View is safe for any number
// of concurrent readers and never blocks on ingest; Refresh forces an
// immediate epoch for callers that need freshness over latency. Close
// stops the publishing goroutine and must happen before the underlying
// Source is closed.
//
// An epoch costs in proportion to what changed since the previous one.
// The Source hands over the merged class-sum delta, the new view's class
// sums are graph.SumTables(previous view's, delta), and the top-K ranks
// only the previous ranking plus the nodes the delta touched. That is
// exact unless the new ranking's weakest member fell below the previous
// ranking's weakest, because a node's τ̂_v depends only on its own class
// sums and on M, C and Shift. The other epochs rebuild fully: the first,
// one whose Source handed over whole class sums instead of a delta
// (after a Downsample), and one whose ranking weakened that far
// (deletions, or η̂_v shifting the c = c₁m + c₂ combination).
// The full rebuild is the same SumTables call with an empty base and the
// same heap fed every node. FullPublishes counts these epochs, and the
// view_publish flight event names their cause.
type Publisher struct {
	src Source
	cfg Config

	cur atomic.Pointer[View]

	// mu serializes publications (the periodic loop and explicit Refresh
	// calls) so epoch numbers increase monotonically with their prefixes.
	// acViews, guarded by it, is the current view's payload bytes as last
	// reported under mem.CompViews.
	// closed, guarded by it too, stops publications for good: a closed
	// publisher has stopped the Source's deltas and takes none, so a
	// later publisher on the same Source starts from whole class sums.
	mu      sync.Mutex
	epoch   uint64
	acViews int64
	closed  bool

	// full counts the epochs that ranked every node.
	full atomic.Uint64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewPublisher normalizes cfg, synchronously publishes epoch 1 (so View
// never returns nil), and starts the periodic publishing goroutine.
func NewPublisher(src Source, cfg Config) *Publisher {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	p := &Publisher{
		src:  src,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.publish()
	go p.loop()
	return p
}

// Config returns the normalized configuration.
func (p *Publisher) Config() Config { return p.cfg }

// View returns the current epoch view: an atomic pointer load, lock-free
// and barrier-free, never blocked by ingest or by a publication in
// progress.
func (p *Publisher) View() *View { return p.cur.Load() }

// Refresh takes a fresh barrier snapshot, publishes it as a new epoch,
// and returns it. It is the explicit escape hatch for callers that need
// the current stream prefix instead of the bounded-stale view. After
// Close it publishes nothing and returns the last view.
func (p *Publisher) Refresh() *View { return p.publish() }

// FullPublishes returns how many epochs ranked every node instead of
// the previous ranking plus the nodes the delta touched.
func (p *Publisher) FullPublishes() uint64 { return p.full.Load() }

// Closed reports whether Close has run.
func (p *Publisher) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// publish materializes and swaps in one epoch (see Publisher).
func (p *Publisher) publish() *View {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return p.cur.Load()
	}
	start := time.Now()
	prev := p.cur.Load()
	o := p.src.Observe()
	est := o.Aggregates.GlobalEstimate()
	p.epoch++
	v := &View{
		Epoch:          p.epoch,
		Taken:          time.Now(),
		Global:         est.Global,
		Variance:       est.Variance,
		EtaHat:         est.EtaHat,
		Processed:      o.Processed,
		Deleted:        o.Deleted,
		SelfLoops:      o.SelfLoops,
		SampledEdges:   o.SampledEdges,
		EtaSaturations: o.EtaSaturations,
		deg:            o.Degrees,
	}
	var cause obs.Cause
	if o.Aggregates.TracksLocal() {
		var base *core.Aggregates
		switch {
		case o.Delta:
			base = prev.counts
		case prev == nil:
			cause = obs.CauseFirst
		default:
			// Whole class sums after the first epoch: a Downsample
			// rescaled every class sum since the previous one.
			cause = obs.CauseDownsample
		}
		v.counts = sumOnto(base, o.Aggregates)
		if cause == obs.CauseNone && !v.rankDelta(p.cfg.TopK, prev, o.Aggregates) {
			cause = obs.CauseWeakened
		}
		if cause != obs.CauseNone {
			v.rank(p.cfg.TopK, v.counts.EachLocal)
			p.full.Add(1)
		}
	}
	p.cur.Store(v)
	if fp := viewFootprint(v); fp != p.acViews {
		p.cfg.Mem.Add(mem.CompViews, fp-p.acViews)
		p.acViews = fp
	}
	if pipe := p.cfg.Obs; pipe != nil {
		d := time.Since(start)
		pipe.ViewPublish.ObserveDuration(d)
		pipe.Flight.RecordCause(obs.KindViewPublish, -1, v.Epoch, d, cause)
	}
	return v
}

// sumOnto returns d's counters with each class sum
// graph.SumTables(base's, d's): the next epoch's tables from the previous
// view's and an observation's delta, or, with a nil base, a copy of a
// full observation's. SumTables never aliases a source, so no published
// table is shared with another view or mutated after publication.
func sumOnto(base, d *core.Aggregates) *core.Aggregates {
	var b core.Aggregates
	if base != nil {
		b = *base
	}
	out := *d
	out.TauV1 = graph.SumTables(b.TauV1, d.TauV1)
	out.TauV2 = graph.SumTables(b.TauV2, d.TauV2)
	if d.EtaV != nil {
		out.EtaV = graph.SumTables(b.EtaV, d.EtaV)
	}
	return &out
}

// viewFootprint returns one view's owned payload bytes: its class-sum
// tables, its degree counters and its precomputed ranking. Scalar fields
// are noise next to the tables and are ignored.
func viewFootprint(v *View) int64 {
	n := v.deg.Bytes() + int64(cap(v.TopK))*int64(unsafe.Sizeof(NodeStat{}))
	if c := v.counts; c != nil {
		n += c.TauV1.Bytes() + c.TauV2.Bytes() + c.EtaV.Bytes()
	}
	return n
}

// loop republishes every interval until Close. It polls at a quarter of
// the interval and measures elapsed time from the published view's own
// capture time, so explicit Refresh calls push the periodic timer back
// instead of stacking an extra publication right after. An idle stream
// publishes nothing: when
// no edge arrived since the current epoch, the view already describes the
// exact current prefix, so re-materializing it (a barrier plus a copy of
// every class-sum table) would buy nothing — the view's Age then keeps
// growing, which is truthful. The staleness bound is therefore "age ≤
// interval + slack OR the view is exact"; the first edge after an overdue
// interval publishes at the next poll tick.
func (p *Publisher) loop() {
	defer close(p.done)
	poll := p.cfg.Interval / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			v := p.cur.Load()
			if p.src.Processed() == v.Processed {
				continue // view is exact for the current prefix
			}
			if time.Since(v.Taken) >= p.cfg.Interval {
				p.publish()
			}
		}
	}
}

// Close stops the publishing goroutine, waits for any publication in
// flight to finish, and stops the Source's deltas at one last barrier, so
// engines no longer record updates nobody takes. The last published view
// stays readable forever, and Refresh returns it without observing the
// Source again. Close is idempotent, and must run before the Source is
// closed.
func (p *Publisher) Close() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	// Serialize with a publish() still holding the barrier so callers may
	// close the Source immediately after Close returns, and return the
	// current view's ledger charge (the view stays readable, but the
	// publisher no longer owns its footprint).
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.src.StopDeltas()
	}
	if p.acViews != 0 {
		p.cfg.Mem.Add(mem.CompViews, -p.acViews)
		p.acViews = 0
	}
	p.mu.Unlock()
}
