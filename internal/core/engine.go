package core

import (
	"fmt"
	"math/bits"

	"rept/internal/graph"
	"rept/internal/hashing"
)

// maskBlock is the number of processors one presence-mask word covers,
// one bit each.
const maskBlock = 64

// Engine is the deployable parallel REPT implementation: C logical
// processors, each with its own sampled edge set E⁽ⁱ⁾. Every event takes
// one walk (see walk) that visits only the processors able to move a
// counter on it. The batch entry points (ApplyAll, ApplyBatch, AddAll)
// walk their events in groups of walkGroup, each staged first (see
// stage) so the group's cache misses overlap; the single-event ones
// resolve their event inline and walk it at once.
//
// Engine is not safe for concurrent use: a single streaming caller drives
// Add/Delete. Parallelism lives one layer up, where shard.Sharded runs one
// engine per goroutine over disjoint processor groups.
type Engine struct {
	cfg      Config
	lay      layout
	trackEta bool
	procs    []*proc
	fam      []Hasher

	// dict is the node dictionary: every node any processor holds, with
	// its presence masks and its neighbor signature and neighbor-set slot
	// on every processor. Every sample mutation keeps it current; the walk
	// probes it once per endpoint to find the processors holding both
	// endpoints of an event.
	dict nodeDict
	// tauV1, tauV2 and etaV are the per-node class sums the reports hand
	// out: Σ τ⁽ⁱ⁾_v over the full-group processors, over the partial
	// group, and Σ η⁽ⁱ⁾_v over all processors. They are the engine's only
	// per-node counters: the walk adds each processor's updates straight
	// into its class's table, snapshots carry them, and Downsample
	// rescales them. Nil unless TrackLocal (etaV also needs η tracking).
	tauV1, tauV2, etaV *graph.NodeTable[int64]
	// dTauV1, dTauV2 and dEtaV are the class-sum delta: every update the
	// walk added into tauV1, tauV2 and etaV since the last TakeDelta (see
	// there). They are nil while nothing reads deltas: an engine starts
	// recording at its first TakeDelta and stops at Downsample or
	// StopDelta, so an engine no consumer observes records nothing. A
	// delta holds no node the class sums lack, so it never outgrows them.
	dTauV1, dTauV2, dEtaV *graph.NodeTable[int64]
	// evs and cols hold the events of the group being walked, resolved
	// by stage (a lone event uses evs[0]): event j's colors are row j of
	// cols, one word per processor group. staged is the dictionary's
	// version when their ids were looked up (see nodeDict.refresh), and
	// touched sinks the loads stage makes only to fill the cache, so the
	// compiler keeps them. visit is per-event walk scratch: per mask block
	// the bits of the processors the event visits.
	evs     [walkGroup]event
	cols    []int
	staged  version
	touched uint64
	visit   []uint64

	closed bool

	processed uint64
	deleted   uint64
	selfLoops uint64

	// shift is the cumulative sample down-shift applied by Downsample;
	// the effective sampling denominator is M·2^shift.
	shift uint
}

// NewEngine builds an Engine for cfg. The hash family (one hash per
// processor group) is derived deterministically from cfg.Seed.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := newLayout(cfg.M, cfg.C)
	trackEta := cfg.TrackEta || lay.needsEta()

	e := &Engine{
		cfg:      cfg,
		lay:      lay,
		trackEta: trackEta,
		fam:      cfg.hashFamily(lay.groups),
		dict:     newNodeDict(cfg.C),
		cols:     make([]int, walkGroup*lay.groups),
		procs:    make([]*proc, cfg.C),
	}
	e.visit = make([]uint64, e.dict.blocks)
	if cfg.TrackLocal {
		e.tauV1, e.tauV2 = &graph.NodeTable[int64]{}, &graph.NodeTable[int64]{}
		if trackEta {
			e.etaV = &graph.NodeTable[int64]{}
		}
	}
	downSeeds := downSeedFamily(uint64(cfg.Seed), lay.groups)
	for i := range e.procs {
		g := lay.groupOf(i)
		e.procs[i] = newProc(i, g, lay.colorOf(i), cfg.TrackLocal, trackEta, downSeeds[g])
	}
	e.linkSums()
	return e, nil
}

// linkSums points every processor at the class-sum tables of its class
// and at their delta tables (nil while no delta is recorded).
func (e *Engine) linkSums() {
	for i, p := range e.procs {
		p.tauSum, p.etaSum = e.tauV1, e.etaV
		p.tauDelta, p.etaDelta = e.dTauV1, e.dEtaV
		if e.lay.isPartialProc(i) {
			p.tauSum, p.tauDelta = e.tauV2, e.dTauV2
		}
	}
}

// walkGroup is how many events a batch stages and walks at a time: the
// misses of one staging step overlap across the group. On
// BenchmarkEngineShardPowerLaw (6 alternating rounds, -cpu 1) groups of
// 4, 8, 16 and 32 read 1,253, 1,252, 1,240 and 1,171 ns/event against
// the ungrouped walk's 1,579, all within the rounds' ±15 % spread of each
// other; 8 keeps the scratch small.
const walkGroup = 8

// event is one stream event resolved for the walk: the edge key and both
// endpoints with their dictionary ids.
type event struct {
	key  uint64
	u, v endpoint
	del  bool
}

// Add feeds one stream edge insertion. Self-loops are skipped (a
// self-loop cannot be part of a triangle).
func (e *Engine) Add(u, v graph.NodeID) { e.one(graph.Update{U: u, V: v}) }

// Delete feeds one stream edge deletion. It requires Config.FullyDynamic
// and panics with ErrNotDynamic otherwise; self-loops are skipped like
// insertions. Deleting an edge that is live but unsampled is the normal
// case and costs nothing extra; deleting an edge that was never inserted
// (a malformed stream) keeps the engine deterministic and finite but
// poisons the estimate (see PairingCounters).
func (e *Engine) Delete(u, v graph.NodeID) { e.one(graph.Update{U: u, V: v, Del: true}) }

// Apply feeds one signed stream event. Deletions require
// Config.FullyDynamic (see Delete).
func (e *Engine) Apply(up graph.Update) { e.one(up) }

// AddEdge feeds one stream edge insertion.
func (e *Engine) AddEdge(edge graph.Edge) { e.one(graph.Update{U: edge.U, V: edge.V}) }

// AddAll feeds a slice of stream edge insertions in order.
func (e *Engine) AddAll(edges []graph.Edge) {
	var ups [walkGroup]graph.Update
	for len(edges) > 0 {
		n := min(len(edges), walkGroup)
		for j, edge := range edges[:n] {
			ups[j] = graph.Update{U: edge.U, V: edge.V}
		}
		e.applyGroups(ups[:n])
		edges = edges[n:]
	}
}

// ApplyAll feeds a slice of signed stream events in order. Deletions
// require Config.FullyDynamic; a rejected deletion panics with every
// earlier event of the slice applied.
func (e *Engine) ApplyAll(ups []graph.Update) { e.applyGroups(ups) }

// ApplyBatch is ApplyAll under the bulk name the shard layer uses.
func (e *Engine) ApplyBatch(ups []graph.Update) { e.ApplyAll(ups) }

// one resolves a lone event and walks it. It stages nothing: with no
// other event to overlap its misses with, staging only reads everything
// twice. Walked through applyGroups as groups of one, lone events ran
// slower on every single-event benchmark (median ns/op of 20
// alternating rounds at -cpu 1 on a 2-core Xeon VM, this path → staged):
// BenchmarkREPTPerEdge 392 → 418, BenchmarkFullyDynamicChurnPerEvent
// 277 → 312, BenchmarkFullyDynamicDeleteOnly 366 → 390.
//
//rept:hotpath
func (e *Engine) one(up graph.Update) {
	cols := e.cols[:len(e.fam)]
	e.staged = e.dict.ver
	e.resolve(up, &e.evs[0], cols)
	e.walk(&e.evs[0], cols)
}

// applyGroups walks ups in groups of walkGroup events, staging each group
// before walking it.
//
//rept:hotpath
func (e *Engine) applyGroups(ups []graph.Update) {
	g := len(e.fam)
	for len(ups) > 0 {
		n := min(len(ups), walkGroup)
		e.stage(ups[:n])
		for j := range n {
			e.walk(&e.evs[j], e.cols[j*g:(j+1)*g])
		}
		ups = ups[n:]
	}
}

// resolve looks up what the walk needs of up: its edge key, its
// endpoints' dictionary ids, and the key's color under every group's
// hash, written to cols — including a partial group's, whose storing
// processor may not exist, because any processor of the group may still
// hold both endpoints.
//
//rept:hotpath
func (e *Engine) resolve(up graph.Update, ev *event, cols []int) {
	ev.key = graph.Key(up.U, up.V)
	ev.u = endpoint{node: up.U, id: e.dict.index.Get(up.U)}
	ev.v = endpoint{node: up.V, id: e.dict.index.Get(up.V)}
	ev.del = up.Del
	for g, h := range e.fam {
		cols[g] = h.Color(ev.key)
	}
}

// stage resolves a group of at most walkGroup events into evs and cols,
// then loads what their walks will load, one dependent step at a time:
// every endpoint's dictionary row, then, on each group's storing
// processor, both endpoints' arena entries. The loads of one step are
// independent across the group, so their misses overlap where a walk
// would take them one after another, and the walks find the rows and
// entries in cache. Staging changes nothing but scratch, so the results
// are those of walking the events one by one. Of what it resolves only
// an id can go stale, when an earlier event of the group interns or
// releases a node (see nodeDict.refresh); masks, signatures and slots are
// read again at walk time.
//
//rept:hotpath
func (e *Engine) stage(ups []graph.Update) {
	g, d := len(e.fam), &e.dict
	e.staged = d.ver
	for j, up := range ups {
		e.resolve(up, &e.evs[j], e.cols[j*g:(j+1)*g])
	}
	sum := e.touched
	for j := range ups {
		ev := &e.evs[j]
		sum += d.rows[int(ev.u.id)*d.w] + d.rows[int(ev.v.id)*d.w]
	}
	for j := range ups {
		ev := &e.evs[j]
		for gi, col := range e.cols[j*g : (j+1)*g] {
			i := gi*e.lay.m + col
			if i >= len(e.procs) {
				continue
			}
			// Slot 0 names no set, and the arena of a processor that never
			// stored an edge is empty.
			sets := &e.procs[i].sets
			if s := d.slot(ev.u.id, i); s != 0 {
				sum += uint64(sets.Deg(s))
			}
			if s := d.slot(ev.v.id, i); s != 0 {
				sum += uint64(sets.Deg(s))
			}
		}
	}
	e.touched = sum
}

// walk applies one resolved event, the engine's only ingest code; cols
// are the event's group colors. It refreshes the endpoints' ids if the
// dictionary changed since they were looked up, then visits each group's
// storing processor — the only one that can sample, remove, or
// phantom-track the edge — plus exactly the processors whose sample holds
// both endpoints, read off the endpoints' presence masks, and skips the
// rest. Each visited processor reads its signatures of both endpoints
// from their dictionary rows, and only when they share a bit its slots
// and neighbor sets (see proc.common). A skipped processor is provably
// inert on the event: with an endpoint absent its common neighborhood is
// empty, so τ/τ_v/η/η_v and the per-edge counters stay put, and the one
// tally a deletion would advance there, d_o, is derived instead (see
// unsampledDeletes). Processors share no mutable state but the
// dictionary, where each writes only its own signature, slot and mask
// bit (and which id a node gets never reaches a counter), so the visiting
// order is free and the results are bit-identical to visiting every
// processor; what changes is cost — on a 1/m-sampled layout most
// processors hold neither endpoint.
//
//rept:hotpath
func (e *Engine) walk(ev *event, cols []int) {
	if e.closed {
		panic(ErrClosed)
	}
	if ev.del && !e.cfg.FullyDynamic {
		panic(ErrNotDynamic)
	}
	u, v := &ev.u, &ev.v
	if u.node == v.node {
		e.selfLoops++
		return
	}
	e.processed++
	if ev.del {
		e.deleted++
	}
	if e.dict.ver != e.staged {
		e.dict.refresh(u, e.staged)
		e.dict.refresh(v, e.staged)
	}
	// The visit set is fixed before any processor runs: a store below may
	// give u or v fresh bits, and those processors must not be revisited
	// for this event.
	mu, mv := e.dict.maskRow(u.id), e.dict.maskRow(v.id)
	for b := range e.visit {
		e.visit[b] = mu[b] & mv[b]
	}
	for g, col := range cols {
		if i := g*e.lay.m + col; i < len(e.procs) {
			e.visit[i/maskBlock] |= 1 << uint(i%maskBlock)
		}
	}
	for b, visit := range e.visit {
		for visit != 0 {
			p := e.procs[b*maskBlock+bits.TrailingZeros64(visit)]
			visit &= visit - 1
			if ev.del {
				p.deleteEdge(&e.dict, u, v, ev.key, cols[p.group])
			} else {
				p.processEdge(&e.dict, u, v, ev.key, cols[p.group])
			}
		}
	}
}

// Aggregates gathers the per-processor counters with copies of the
// whole class-sum tables — two slice copies each, however many nodes
// there are. It leaves the delta alone. The engine remains usable
// afterwards, so interval workloads can snapshot estimates mid-stream.
func (e *Engine) Aggregates() *Aggregates {
	agg := e.counters()
	agg.TauV1, agg.TauV2, agg.EtaV = agg.TauV1.Clone(), agg.TauV2.Clone(), agg.EtaV.Clone()
	return &agg
}

// ProcCounters gathers the per-processor counters alone, with no class
// sums: enough for the global estimate and every scalar read.
func (e *Engine) ProcCounters() *Aggregates {
	agg := e.counters()
	agg.TauV1, agg.TauV2, agg.EtaV = nil, nil, nil
	return &agg
}

// NodeCounters gathers the per-processor counters with node v's
// class-sum entries alone, as one-entry tables (empty ones where a class
// holds no entry for v): enough for τ̂_v.
func (e *Engine) NodeCounters(v graph.NodeID) *Aggregates {
	agg := e.counters()
	agg.TauV1, agg.TauV2, agg.EtaV = nodeEntry(agg.TauV1, v), nodeEntry(agg.TauV2, v), nodeEntry(agg.EtaV, v)
	return &agg
}

// nodeEntry returns a table holding only v's entry of t (none when t
// lacks v); nil for a nil t.
func nodeEntry(t *graph.NodeTable[int64], v graph.NodeID) *graph.NodeTable[int64] {
	if t == nil {
		return nil
	}
	out := &graph.NodeTable[int64]{}
	if t.Has(v) {
		out.Put(v, t.Get(v))
	}
	return out
}

// TakeDelta gathers the per-processor counters with a copy of the
// class-sum delta — every update since the previous TakeDelta, entries
// that netted to zero included — restarts the delta, and reports true.
// An engine not recording a delta (no TakeDelta started one, or
// Downsample or StopDelta ended it) hands over copies of its whole class
// sums instead, reports false, and records from here on. Without
// TrackLocal there are no class sums and it always reports false.
func (e *Engine) TakeDelta() (*Aggregates, bool) {
	if e.dTauV1 == nil {
		agg := e.Aggregates()
		e.startDelta()
		return agg, false
	}
	agg := e.counters()
	agg.TauV1, agg.TauV2, agg.EtaV = e.dTauV1.Clone(), e.dTauV2.Clone(), e.dEtaV.Clone()
	e.startDelta()
	return &agg, true
}

// startDelta empties the delta in place, keeping its capacity so a
// steady epoch allocates nothing, or creates it. A delta the ending
// epoch filled to less than an eighth gives its storage back instead
// (see graph.NodeTable.Clear), so the capacity a large epoch reached —
// the preload's, say — does not stay on every later clone and SumTables
// walk.
func (e *Engine) startDelta() {
	if !e.cfg.TrackLocal {
		return
	}
	if e.dTauV1 != nil {
		e.dTauV1.Clear()
		e.dTauV2.Clear()
		e.dEtaV.Clear()
		return
	}
	e.dTauV1, e.dTauV2 = &graph.NodeTable[int64]{}, &graph.NodeTable[int64]{}
	if e.etaV != nil {
		e.dEtaV = &graph.NodeTable[int64]{}
	}
	e.linkSums()
}

// StopDelta stops recording the class-sum delta and releases its
// storage, so the next TakeDelta hands over whole class sums. A consumer
// that will take no more deltas calls it; Downsample does too, since it
// rescales every class sum.
func (e *Engine) StopDelta() {
	e.dTauV1, e.dTauV2, e.dEtaV = nil, nil, nil
	e.linkSums()
}

// counters is Aggregates without the copies: the class sums are the
// engine's own tables, so the result is valid only until the next event.
//
//rept:deterministic
func (e *Engine) counters() Aggregates {
	agg := e.classSums()
	agg.TauProc = make([]int64, e.cfg.C)
	if e.trackEta {
		agg.EtaProc = make([]int64, e.cfg.C)
	}
	for i, p := range e.procs {
		agg.TauProc[i] = p.tau
		if e.trackEta {
			agg.EtaProc[i] = p.eta
		}
	}
	return agg
}

// classSums is counters without the per-processor counters: enough to
// evaluate one node's estimate, and allocation-free.
func (e *Engine) classSums() Aggregates {
	if e.closed {
		panic(ErrClosed)
	}
	return Aggregates{M: e.cfg.M, C: e.cfg.C, Shift: int(e.shift), TauV1: e.tauV1, TauV2: e.tauV2, EtaV: e.etaV}
}

// Result evaluates the REPT estimators. Its Local map is freshly built,
// so it reads the engine's class sums without copying them first.
func (e *Engine) Result() Estimate {
	agg := e.counters()
	return agg.Estimate()
}

// GlobalEstimate is Result without the per-node estimates: its Local map
// is nil, and it builds no per-node state at all.
func (e *Engine) GlobalEstimate() Estimate {
	agg := e.counters()
	return agg.GlobalEstimate()
}

// LocalOf returns τ̂_v, read straight off the engine's class sums: 0 for a
// node no class sum holds, or when local counts are not tracked.
func (e *Engine) LocalOf(v graph.NodeID) float64 {
	agg := e.classSums()
	return agg.LocalOf(v)
}

// Processed returns the number of non-loop events (insertions plus
// deletions) fed so far. It is monotone in stream position.
func (e *Engine) Processed() uint64 { return e.processed }

// Deleted returns the number of non-loop deletion events fed so far
// (always 0 unless Config.FullyDynamic).
func (e *Engine) Deleted() uint64 { return e.deleted }

// SelfLoops returns the number of self-loop arrivals skipped.
func (e *Engine) SelfLoops() uint64 { return e.selfLoops }

// PairingStats are the engine-wide random-pairing deletion tallies,
// summed over the logical processors (see snapshot.ProcState for the
// per-processor split).
type PairingStats struct {
	// SampledDeletes counts deletions whose edge was in some processor's
	// sample at deletion time (TRIÈST-FD's d_i, summed over processors).
	// Under hash-partition sampling each is compensated immediately by its
	// own removal, which is why the unbiasing factors need no adjustment.
	SampledDeletes uint64
	// UnsampledDeletes counts deletions outside the sample (d_o summed).
	UnsampledDeletes uint64
	// PhantomDeletes counts deletions of edges the hash says would have
	// been sampled but that were absent — i.e. deletions of edges never
	// inserted. Non-zero phantom counts flag a malformed stream whose
	// estimates are unreliable.
	PhantomDeletes uint64
}

// unsampledDeletes is p's d_o, derived rather than counted: every non-loop
// deletion advances exactly one of p's d_i, d_o and phantom tallies, and
// only p's own storing visits can advance d_i or phantom, so
// d_o = Deleted − d_i − phantom. That is what lets the walk skip the
// processors holding neither endpoint of a deletion.
func (e *Engine) unsampledDeletes(p *proc) uint64 { return e.deleted - p.di - p.phantom }

// PairingCounters returns the engine-wide random-pairing deletion
// tallies.
func (e *Engine) PairingCounters() PairingStats {
	if e.closed {
		panic(ErrClosed)
	}
	var ps PairingStats
	for _, p := range e.procs {
		ps.SampledDeletes += p.di
		ps.UnsampledDeletes += e.unsampledDeletes(p)
		ps.PhantomDeletes += p.phantom
	}
	return ps
}

// EtaSaturations returns how many per-edge closing-counter updates were
// clamped at the int32 boundary instead of wrapping (see ctab). Zero on
// every realistic stream; a non-zero value flags an adversarially hot
// edge whose η̂ contribution is now a bounded under-estimate rather than
// silent wrap-around garbage. The tally is a diagnostic: it is not part
// of snapshots and resets on restore.
func (e *Engine) EtaSaturations() uint64 {
	if e.closed {
		panic(ErrClosed)
	}
	var n uint64
	for _, p := range e.procs {
		if p.tcnt != nil {
			n += p.tcnt.sat
		}
	}
	return n
}

// SampledEdges returns the total number of edges currently stored across
// all logical processors (expected ≈ C·|E_live|/M), a memory diagnostic.
// In fully-dynamic mode it tracks the live edge set: deletions of sampled
// edges shrink it.
func (e *Engine) SampledEdges() int {
	total := 0
	for _, p := range e.procs {
		total += p.edges
	}
	return total
}

// Footprint is an engine's storage in bytes, recomputed from
// capacities, split the way the byte ledger's components split it.
type Footprint struct {
	// Adjacency is every processor's neighbor-set store.
	Adjacency int64
	// Masks is the node dictionary: its index, rows and free list.
	Masks int64
	// Counters is the class sums, their delta and the per-edge counter
	// tables.
	Counters int64
}

// Footprint returns the engine's storage bytes. It reads capacities and
// running totals only, so it costs O(C) and allocates nothing; the
// shard layer moves the byte ledger to it after every batch and barrier.
func (e *Engine) Footprint() Footprint {
	f := Footprint{
		Masks: e.dict.bytes(),
		Counters: e.tauV1.Bytes() + e.tauV2.Bytes() + e.etaV.Bytes() +
			e.dTauV1.Bytes() + e.dTauV2.Bytes() + e.dEtaV.Bytes(),
	}
	for _, p := range e.procs {
		f.Adjacency += p.sets.Bytes()
		if p.tcnt != nil {
			f.Counters += p.tcnt.tab.Bytes()
		}
	}
	return f
}

// maxSampleShift bounds the cumulative down-shift: the effective
// denominator M·2^shift stays far from int overflow and the keep filter's
// bit extraction stays well-defined.
const maxSampleShift = 32

// downSeedFamily derives one downsample-filter seed per processor group
// from the master seed. The derivation chain is salted so it is disjoint
// from the color-hash family chain (which consumes SplitMix64 values of
// the raw seed): the keep filter must be independent of the partition
// hashes or admission would correlate with color.
func downSeedFamily(masterSeed uint64, groups int) []uint64 {
	state := masterSeed ^ 0xd6e8feb86659fd93 // salt: distinct derivation chain
	out := make([]uint64, groups)
	for i := range out {
		out[i] = hashing.SplitMix64(&state)
	}
	return out
}

// Downsample rounding classes: which counter a coin rounds. The
// processor counters are keyed by processor index, the class sums by
// node.
const (
	roundTau = iota
	roundTauV1
	roundTauV2
)

// downCoin returns the coin that rounds counter x of class when the
// cumulative shift becomes shift: a hash of (x, class, shift, seed). It
// depends on nothing else, so the rounding is deterministic, independent
// of table layout and visiting order, and the same on a resumed engine
// as on one that never stopped.
func (e *Engine) downCoin(x uint64, class int, shift uint) uint64 {
	return hashing.Mix64(hashing.Mix64(x<<8|uint64(class)<<6|uint64(shift)) ^ uint64(e.cfg.Seed) ^ 0x9e6c63d0676a9a99)
}

// scaleRound divides x by 2^s, s in [0, 64], with stochastic rounding:
// ⌊x/2^s⌋, plus one when the top s bits of coin fall below the s bits the
// division drops. Over a uniform coin it rounds up with probability equal
// to the dropped fraction, so its mean is exactly x/2^s: a counter
// rescaled this way keeps its expectation, however small it is.
func scaleRound(x int64, s uint, coin uint64) int64 {
	if s == 0 {
		return x
	}
	q := x >> s
	if coin>>(64-s) < uint64(x)&(^uint64(0)>>(64-s)) {
		q++
	}
	return q
}

// Downsample halves the sampling probability extra more times: the
// effective probability drops from p/2^shift to p/2^(shift+extra) and the
// effective denominator rises to M·2^(shift+extra). It is the
// memory-pressure adaptation of the control plane — TRIÈST keeps memory
// fixed by reservoir-evicting per edge; REPT's hash partition instead
// re-partitions wholesale, in one deterministic sweep:
//
//   - every stored edge failing the tightened keep filter is evicted from
//     its processor's adjacency (the filter is monotone in shift, so
//     surviving edges are exactly a fresh 2^-extra re-sample of the
//     sample, and a re-arriving key reproduces the same decision);
//   - every τ⁽ⁱ⁾ and every class-sum entry Σ τ⁽ⁱ⁾_v is rescaled by
//     ρ² = 2^(−2·extra), since each counts wedge pairs whose joint
//     retention probability shrank by ρ². Each is rounded with
//     scaleRound under its own coin (see downCoin), so the rescaled
//     counter's expectation is exactly ρ² times the old one.
//
// TRIÈST stays unbiased under eviction the same way, by rescaling each
// counter by exactly the change in sampling probability. The global
// estimate, evaluated at m_eff by the pooled estimator, and every local
// estimate stay unbiased. Rounding each small per-processor counter half
// away from zero instead turned a quarter of 1 into 0: one Downsample(1)
// left Σ_v τ̂_v at 0.536× (HolmeKim 20k nodes, M=10, C=40, 20 seeds:
// 226,014 → 121,244); with stochastic rounding it reads 225,992 (1.000×),
// and 1.002× of exact on the nodes with 20 ≤ τ_v < 100 (was 0.740×).
// Rounding each class sum half away from zero instead kept Σ_v τ̂_v at
// 0.995× but read 1.150× on that bucket.
//
// The surviving edges are then placed into a fresh node dictionary and
// fresh neighbor-set stores, and the class sums are rebuilt without the
// entries that reached 0, so the evicted part of the sample — rows, arena
// slots, oversized tables, class-sum slots — actually leaves memory
// instead of staying resident as slack.
//
// Downsample refuses engines that track η: the per-edge closing counters
// count events against the historical sample and cannot be rescaled
// soundly (a memory controller can then only shed load on such
// configurations). It also requires a quiescent engine — the caller
// must not be feeding events concurrently, the same contract as State.
func (e *Engine) Downsample(extra int) error {
	if e.closed {
		return ErrClosed
	}
	if extra <= 0 {
		return fmt.Errorf("core: Downsample(%d): extra must be >= 1", extra)
	}
	if e.trackEta {
		return ErrEtaDownsample
	}
	newShift := e.shift + uint(extra)
	if newShift > maxSampleShift {
		return fmt.Errorf("core: Downsample: cumulative shift %d exceeds max %d", newShift, maxSampleShift)
	}
	s := 2 * uint(extra)
	// Every class sum is about to be rescaled, so no delta can describe
	// the change: the next TakeDelta hands over whole class sums.
	e.StopDelta()
	samples := e.sampleEdges()
	for i, p := range e.procs {
		p.shift = newShift
		kept := samples[i][:0]
		for _, ed := range samples[i] {
			if p.keeps(ed.Key()) {
				kept = append(kept, ed)
			}
		}
		samples[i] = kept
		p.tau = scaleRound(p.tau, s, e.downCoin(uint64(i), roundTau, newShift))
	}
	e.dict.reset()
	for _, p := range e.procs {
		p.sets.Reset()
		p.edges = 0
	}
	for i, p := range e.procs {
		for _, ed := range samples[i] {
			e.place(p, ed.U, ed.V)
		}
	}
	if e.cfg.TrackLocal {
		e.rescale(e.tauV1, roundTauV1, s, newShift)
		e.rescale(e.tauV2, roundTauV2, s, newShift)
	}
	e.shift = newShift
	return nil
}

// rescale divides every entry of the class-sum table t by 2^s with
// scaleRound and rebuilds t from the entries that stay non-zero.
func (e *Engine) rescale(t *graph.NodeTable[int64], class int, s, shift uint) {
	old := t.Clone()
	t.Reset()
	old.Each(func(v graph.NodeID, x int64) {
		if y := scaleRound(x, s, e.downCoin(uint64(v), class, shift)); y != 0 {
			t.Add(v, y)
		}
	})
}

// sampleEdges returns every processor's sampled edges, each once in
// canonical orientation (U < V), read off the dictionary in one pass.
func (e *Engine) sampleEdges() [][]graph.Edge {
	out := make([][]graph.Edge, len(e.procs))
	for i, p := range e.procs {
		out[i] = make([]graph.Edge, 0, p.edges)
	}
	e.dict.index.Each(func(u graph.NodeID, id int32) {
		for i, p := range e.procs {
			if s := e.dict.slot(id, i); s != 0 {
				p.sets.Each(s, u, func(w graph.NodeID) {
					if u < w {
						out[i] = append(out[i], graph.Edge{U: u, V: w})
					}
				})
			}
		}
	})
	return out
}

// place adds the edge {u, v} to p's sample outside the walk — the path a
// restore and Downsample's rebuild load sampled edges through — and
// reports false for a self-loop or an edge p already holds.
func (e *Engine) place(p *proc, u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	eu, ev := endpoint{node: u, id: e.dict.index.Get(u)}, endpoint{node: v, id: e.dict.index.Get(v)}
	return e.dict.place(p, &eu, &ev)
}

// SampleShift returns the cumulative down-shift applied by Downsample
// (0 for an engine that never adapted). The effective sampling
// probability is 1/(M·2^shift).
func (e *Engine) SampleShift() int { return int(e.shift) }

// Close retires the engine: any later use panics with ErrClosed (State
// and Aggregates included). Close is idempotent.
func (e *Engine) Close() { e.closed = true }
