package core

import (
	"fmt"
	"math/bits"

	"rept/internal/graph"
	"rept/internal/hashing"
)

// maskBlock is the number of processors one presence-mask table covers,
// one uint64 bit each.
const maskBlock = 64

// Engine is the deployable parallel REPT implementation: C logical
// processors, each with its own sampled edge set E⁽ⁱ⁾. Every event takes
// one walk (see walk) that visits only the processors able to move a
// counter on it.
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

	// masks holds one presence-mask table per block of 64 processors:
	// masks[b] maps a node to the bitmask of processors 64b … 64b+63 whose
	// sampled adjacency contains it. Every sample mutation keeps them
	// current; the walk reads them to find the processors holding both
	// endpoints of an event.
	masks []*graph.MaskTable
	// cols and store are per-event walk scratch: each group's color of
	// the event, and per mask block the bits of the groups' storing
	// processors.
	cols  []int
	store []uint64

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
	blocks := (cfg.C + maskBlock - 1) / maskBlock

	e := &Engine{
		cfg:      cfg,
		lay:      lay,
		trackEta: trackEta,
		fam:      cfg.hashFamily(lay.groups),
		masks:    make([]*graph.MaskTable, blocks),
		cols:     make([]int, lay.groups),
		store:    make([]uint64, blocks),
		procs:    make([]*proc, cfg.C),
	}
	for b := range e.masks {
		e.masks[b] = graph.NewMaskTable()
		if cfg.Mem != nil {
			e.masks[b].SetAccountant(cfg.Mem)
		}
	}
	downSeeds := downSeedFamily(uint64(cfg.Seed), lay.groups)
	for i := range e.procs {
		g := lay.groupOf(i)
		p := newProc(g, lay.colorOf(i), cfg.TrackLocal, trackEta, downSeeds[g], cfg.Mem)
		p.masks = e.masks[i/maskBlock]
		p.maskBit = 1 << uint(i%maskBlock)
		e.procs[i] = p
	}
	return e, nil
}

// Add feeds one stream edge insertion. Self-loops are skipped (a
// self-loop cannot be part of a triangle).
func (e *Engine) Add(u, v graph.NodeID) { e.walk(graph.Update{U: u, V: v}) }

// Delete feeds one stream edge deletion. It requires Config.FullyDynamic
// and panics with ErrNotDynamic otherwise; self-loops are skipped like
// insertions. Deleting an edge that is live but unsampled is the normal
// case and costs nothing extra; deleting an edge that was never inserted
// (a malformed stream) keeps the engine deterministic and finite but
// poisons the estimate (see PairingCounters).
func (e *Engine) Delete(u, v graph.NodeID) { e.walk(graph.Update{U: u, V: v, Del: true}) }

// Apply feeds one signed stream event. Deletions require
// Config.FullyDynamic (see Delete).
func (e *Engine) Apply(up graph.Update) { e.walk(up) }

// AddEdge feeds one stream edge insertion.
func (e *Engine) AddEdge(edge graph.Edge) { e.walk(graph.Update{U: edge.U, V: edge.V}) }

// AddAll feeds a slice of stream edge insertions in order.
func (e *Engine) AddAll(edges []graph.Edge) {
	for _, edge := range edges {
		e.walk(graph.Update{U: edge.U, V: edge.V})
	}
}

// ApplyAll feeds a slice of signed stream events in order. Deletions
// require Config.FullyDynamic; a rejected deletion panics with every
// earlier event of the slice applied.
func (e *Engine) ApplyAll(ups []graph.Update) {
	for _, up := range ups {
		e.walk(up)
	}
}

// ApplyBatch is ApplyAll under the bulk name the shard layer uses.
func (e *Engine) ApplyBatch(ups []graph.Update) { e.ApplyAll(ups) }

// walk applies one signed event, the engine's only ingest code. It visits
// each group's storing processor — the only one that can sample, remove,
// or phantom-track the edge — plus exactly the processors whose sample
// holds both endpoints, and skips the rest. A skipped processor is
// provably inert on the event: with an endpoint absent its common
// neighborhood is empty, so τ/τ_v/η/η_v and the per-edge counters stay
// put, and the one tally a deletion would advance there, d_o, is derived
// instead (see unsampledDeletes). Processors share no mutable state but
// their own mask bits, so the visiting order is free and the results are
// bit-identical to visiting every processor; what changes is cost — on a
// 1/m-sampled layout most processors hold neither endpoint.
//
//rept:hotpath
func (e *Engine) walk(up graph.Update) {
	if e.closed {
		panic(ErrClosed)
	}
	if up.Del && !e.cfg.FullyDynamic {
		panic(ErrNotDynamic)
	}
	if up.U == up.V {
		e.selfLoops++
		return
	}
	e.processed++
	if up.Del {
		e.deleted++
	}
	key := graph.Key(up.U, up.V)
	clear(e.store)
	for g, h := range e.fam {
		col := h.Color(key)
		// Record the color for every group — including a partial group
		// whose storing processor does not exist — because any processor
		// of the group may still hold both endpoints.
		e.cols[g] = col
		if i := g*e.lay.m + col; i < len(e.procs) {
			e.store[i/maskBlock] |= 1 << uint(i%maskBlock)
		}
	}
	for b, mt := range e.masks {
		// The block's visit set is fixed before any of its processors
		// runs: a store below may set fresh bits for u or v, and those
		// processors must not be revisited for this event.
		visit := e.store[b] | mt.Get(up.U)&mt.Get(up.V)
		for visit != 0 {
			p := e.procs[b*maskBlock+bits.TrailingZeros64(visit)]
			visit &= visit - 1
			if up.Del {
				p.deleteEdge(up.U, up.V, key, e.cols[p.group])
			} else {
				p.processEdge(up.U, up.V, key, e.cols[p.group])
			}
		}
	}
}

// Aggregates gathers the per-processor counters. The engine remains
// usable afterwards, so interval workloads can snapshot estimates
// mid-stream. Its result must not depend on iteration order
// (merges and snapshots consume it); the only map walks are commutative
// int64 accumulations.
//
//rept:deterministic
func (e *Engine) Aggregates() *Aggregates {
	if e.closed {
		panic(ErrClosed)
	}
	agg := &Aggregates{M: e.cfg.M, C: e.cfg.C, Shift: int(e.shift), TauProc: make([]int64, e.cfg.C)}
	if e.trackEta {
		agg.EtaProc = make([]int64, e.cfg.C)
	}
	if e.cfg.TrackLocal {
		agg.TauV1 = make(map[graph.NodeID]int64)
		agg.TauV2 = make(map[graph.NodeID]int64)
		if e.trackEta {
			agg.EtaV = make(map[graph.NodeID]int64)
		}
	}
	for i, p := range e.procs {
		p.reaccountLocal()
		agg.TauProc[i] = p.tau
		if e.trackEta {
			agg.EtaProc[i] = p.eta
		}
		if e.cfg.TrackLocal {
			dst := agg.TauV1
			if e.lay.isPartialProc(i) {
				dst = agg.TauV2
			}
			for v, t := range p.tauV {
				dst[v] += t
			}
			if e.trackEta {
				for v, h := range p.etaV {
					agg.EtaV[v] += h
				}
			}
		}
	}
	return agg
}

// Result evaluates the REPT estimators.
func (e *Engine) Result() Estimate { return e.Aggregates().Estimate() }

// Processed returns the number of non-loop events (insertions plus
// deletions) fed so far. It is monotone in stream position.
func (e *Engine) Processed() uint64 { return e.processed }

// Position returns the engine's stream position — identical to
// Processed, under the name the durability layer's contract uses: a
// write-ahead log addresses records by position, an engine restored
// from a snapshot at position P must be fed exactly the events at
// positions ≥ P (through Apply/ApplyAll, the replay entry points), and
// after replay Position equals the log's end.
func (e *Engine) Position() uint64 { return e.processed }

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
// clamped at the int32 boundary instead of wrapping (see ctab). Zero on every realistic stream; a non-zero value
// flags an adversarially hot edge whose η̂ contribution is now a bounded
// under-estimate rather than silent wrap-around garbage. The tally is a
// diagnostic: it is not part of snapshots and resets on restore.
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
		total += p.adj.Edges()
	}
	return total
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

// scaleHalfAway divides x by 2^s rounding half away from zero — the
// deterministic counter rescale used by Downsample. Plain >> would round
// toward −∞, biasing rescaled counters downward on positive mass and
// upward on negative mass.
func scaleHalfAway(x int64, s uint) int64 {
	if s == 0 {
		return x
	}
	half := int64(1) << (s - 1)
	if x >= 0 {
		return (x + half) >> s
	}
	return -((-x + half) >> s)
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
//   - τ⁽ⁱ⁾ and the per-node τ⁽ⁱ⁾_v are rescaled by ρ² = 2^(−2·extra)
//     with deterministic half-away-from-zero rounding, since each counts
//     wedge pairs whose joint retention probability shrank by ρ².
//
// The rescaled counters keep E[m_eff²·Στ⁽ⁱ⁾/c] = τ (up to ±½ rounding per
// counter), so estimates remain unbiased at the new effective denominator;
// Aggregates carry the shift and Estimate evaluates the pooled estimator
// at m_eff.
//
// Downsample refuses engines that track η: the per-edge closing counters
// count events against the historical sample and cannot be rescaled
// soundly (a controller degrades to top-K shrinking and load shedding on
// such configurations). It also requires a quiescent engine — the caller
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
	var buf []graph.Edge
	for _, p := range e.procs {
		p.shift = newShift
		buf = p.adj.AppendEdges(buf[:0])
		for _, ed := range buf {
			if p.keeps(graph.Key(ed.U, ed.V)) {
				continue
			}
			_, goneU, goneV := p.adj.RemoveReport(ed.U, ed.V)
			if goneU {
				p.masks.AndNot(ed.U, p.maskBit)
			}
			if goneV {
				p.masks.AndNot(ed.V, p.maskBit)
			}
		}
		p.tau = scaleHalfAway(p.tau, s)
		for v, t := range p.tauV {
			if t2 := scaleHalfAway(t, s); t2 != 0 {
				p.tauV[v] = t2
			} else {
				delete(p.tauV, v)
			}
		}
		// Thinning evicted most stored edges but the retained capacities —
		// arena slack, spill slices, oversized tables — would keep every
		// byte resident (and on the ledger). Compacting is what turns the
		// statistical adaptation into an actual memory release.
		p.adj.Compact()
		p.reaccountLocal()
	}
	e.shift = newShift
	return nil
}

// SampleShift returns the cumulative down-shift applied by Downsample
// (0 for an engine that never adapted). The effective sampling
// probability is 1/(M·2^shift).
func (e *Engine) SampleShift() int { return int(e.shift) }

// Close retires the engine: any later use panics with ErrClosed (State
// and Aggregates included). Close is idempotent.
func (e *Engine) Close() { e.closed = true }
