package core

import (
	"rept/internal/graph"
	"rept/internal/hashing"
)

// proc is the state of one logical REPT processor in the parallel Engine.
// It counts the semi-triangles every stream edge closes against its
// sampled set but stores only the edges its group hash colors with its
// own color — the paper's distributed-memory model where each processor
// keeps an expected p·|E| edges. The engine's walk visits it only for the
// edges it stores and the edges whose endpoints its sample both holds:
// for every other edge the intersection is empty and nothing moves. Its
// sampled adjacency is a slot-addressed neighbor-set store; the engine's
// node dictionary holds the processor's slot and neighbor signature of
// every node.
//
// Counters are signed: in fully-dynamic mode a processor's τ⁽ⁱ⁾ can go
// negative transiently (a deletion may be observed against sampled wedge
// edges whose closing insert was not, because the closing edge itself was
// unsampled when the wedge formed later). The estimator is unbiased for
// the NET triangle count exactly because those signed contributions
// cancel in expectation. On insert-only streams every counter stays
// non-negative and the arithmetic is bit-identical to the historical
// unsigned implementation.
type proc struct {
	group      int
	color      int
	trackLocal bool
	trackEta   bool

	// sets holds the processor's sampled neighbor sets and edges counts
	// its sampled edges. index is the processor's position: its signature
	// and slot in every dictionary row and, with maskBit, its bit in the
	// rows' presence masks.
	sets    graph.NeighborSets
	edges   int
	index   int
	maskBit uint64

	tau int64
	eta int64
	// tauSum and etaSum are the engine's class-sum tables this processor
	// adds its τ⁽ⁱ⁾_v and η⁽ⁱ⁾_v updates into (tauSum is the full-group or
	// the partial-group one). The processor keeps no per-node counters of
	// its own: the estimators read τ⁽ⁱ⁾_v and η⁽ⁱ⁾_v only through these
	// sums. Nil unless the engine tracks them. tauDelta and etaDelta are
	// the engine's delta tables of the same classes, which record every
	// update too while a consumer reads deltas (see Engine.TakeDelta);
	// nil otherwise.
	tauSum, etaSum     *graph.NodeTable[int64]
	tauDelta, etaDelta *graph.NodeTable[int64]
	// tcnt holds τ⁽ⁱ⁾_g: the signed number of semi-triangle closings in
	// Δ⁽ⁱ⁾ involving the sampled edge g as a wedge edge — the per-edge
	// counters Algorithm 2 uses to maintain η⁽ⁱ⁾ incrementally. Entries
	// exist for exactly the sampled edges and start at 0 when the edge is
	// sampled (the semi-triangles the edge itself closes on arrival have
	// it as their last edge, not a wedge edge); deletion of a sampled edge
	// removes its entry. Stored in a flat open-addressing table keyed by
	// the canonical 64-bit edge key, with saturating counter arithmetic
	// (see ctab).
	tcnt *ctab

	// Random-pairing deletion counters (TRIÈST-FD's d_i, specialized to
	// hash-partition sampling): di counts deletions of edges that were in
	// this processor's sample (each immediately compensated by its own
	// removal — the pairing is deterministic here, so the unbiasing factor
	// stays exactly 1). phantom counts malformed deletions: the hash says
	// the edge would have been sampled, yet it is absent — i.e. it was
	// never inserted. d_o, the deletions outside the sample, is derived
	// from these two and the engine's deletion count (see
	// Engine.unsampledDeletes).
	di, phantom uint64

	// shift is the cumulative sample down-shift (see Engine.Downsample):
	// the effective sampling probability is p/2^shift, realized by the
	// extra keep filter in keeps. downSeed seeds that filter, derived per
	// group so different groups stay mutually independent after
	// downsampling, exactly as their color hashes are.
	shift    uint
	downSeed uint64

	scratch []graph.NodeID
}

func newProc(index, group, color int, trackLocal, trackEta bool, downSeed uint64) *proc {
	p := &proc{
		group:      group,
		color:      color,
		trackLocal: trackLocal,
		trackEta:   trackEta,
		index:      index,
		maskBit:    1 << uint(index%maskBlock),
		downSeed:   downSeed,
	}
	if trackEta {
		p.tcnt = &ctab{}
	}
	return p
}

// keeps reports whether the extra downsample filter admits the edge: the
// top shift bits of an independent mix of the key must be zero, so the
// admitted fraction is exactly 2^-shift and admission is monotone in
// shift (an edge kept at shift k+1 was kept at shift k). With shift 0 —
// the lifetime state of every engine that never downsamples — it is a
// single predictable branch on the hot path.
//
//rept:hotpath
func (p *proc) keeps(key uint64) bool {
	return p.shift == 0 || hashing.Mix64(key^p.downSeed)>>(64-p.shift) == 0
}

// common returns |N(u) ∩ N(v)| in the processor's sample, leaving the
// common neighbors in scratch for the per-node and η bookkeeping. When
// the endpoints' signatures share no bit the intersection is provably
// empty, and it returns 0 without reading a slot or a neighbor set. An
// endpoint the processor does not hold has signature 0. Where it holds
// both, the intersection is almost always empty too (98 % of such visits
// on a Holme–Kim stream at M=10, C=20), and the signatures settle 74 %
// of them.
//
//rept:hotpath
func (p *proc) common(d *nodeDict, u, v *endpoint) int64 {
	p.scratch = p.scratch[:0]
	if d.sig(u.id, p.index)&d.sig(v.id, p.index) == 0 {
		return 0
	}
	su, sv := d.slot(u.id, p.index), d.slot(v.id, p.index)
	p.scratch = p.sets.Intersect(su, u.node, sv, v.node, p.scratch)
	return int64(len(p.scratch))
}

// addTau adds x to v's τ class sum and, while a consumer reads deltas,
// to v's delta entry.
//
//rept:hotpath
func (p *proc) addTau(v graph.NodeID, x int64) {
	p.tauSum.Add(v, x)
	if p.tauDelta != nil {
		p.tauDelta.Add(v, x)
	}
}

// addEta is addTau for the η class sum.
//
//rept:hotpath
func (p *proc) addEta(v graph.NodeID, x int64) {
	p.etaSum.Add(v, x)
	if p.etaDelta != nil {
		p.etaDelta.Add(v, x)
	}
}

// processEdge implements UpdateTriangleCNT / UpdateTrianglePairCNT from
// Algorithms 1 and 2 followed by the conditional insertion of the edge
// into E⁽ⁱ⁾. The caller filters self-loops, looks both endpoints up in the
// dictionary d once per event, and precomputes the edge's color under the
// processor's group hash once per (edge, group), since all m processors
// of a group share the hash.
//
//rept:hotpath
func (p *proc) processEdge(d *nodeDict, eu, ev *endpoint, key uint64, color int) {
	u, v := eu.node, ev.node
	n := p.common(d, eu, ev)
	p.tau += n
	if p.trackLocal && n > 0 {
		p.addTau(u, n)
		p.addTau(v, n)
		for _, w := range p.scratch {
			p.addTau(w, 1)
		}
	}
	if p.trackEta {
		for _, w := range p.scratch {
			kuw, kvw := graph.Key(u, w), graph.Key(v, w)
			a, _ := p.tcnt.bump(kuw, 1)
			b, _ := p.tcnt.bump(kvw, 1)
			p.eta += int64(a) + int64(b)
			if p.etaSum != nil {
				if ab := int64(a) + int64(b); ab != 0 {
					p.addEta(w, ab)
				}
				if a != 0 {
					p.addEta(u, int64(a))
				}
				if b != 0 {
					p.addEta(v, int64(b))
				}
			}
		}
	}
	if color == p.color && p.keeps(key) && d.place(p, eu, ev) && p.trackEta {
		p.tcnt.insert(key)
	}
}

// deleteEdge is the exact signed inverse of processEdge: the removal of
// the edge from E⁽ⁱ⁾ (when sampled) followed by the reverse counter
// updates over the wedges the deletion un-closes. On a well-formed stream
// a matched insert/delete pair leaves every counter exactly where it
// started, so the net counters estimate the net (live-graph) statistics
// with the unchanged m²/c unbiasing factor — the deterministic-pairing
// analogue of TRIÈST-FD's random pairing under fixed-probability
// sampling.
//
// Whether the deleted edge itself is sampled does not affect the wedge
// arithmetic (an edge is never a wedge of its own triangle-closing
// events), so every processor applies the same signed update and the
// cross-processor counter semantics stay aligned.
//
//rept:hotpath
func (p *proc) deleteEdge(d *nodeDict, eu, ev *endpoint, key uint64, color int) {
	u, v := eu.node, ev.node
	if color == p.color && p.keeps(key) {
		if d.evict(p, eu, ev) {
			p.di++
			if p.trackEta {
				p.tcnt.del(key)
			}
		} else {
			p.phantom++
		}
	}
	n := p.common(d, eu, ev)
	p.tau -= n
	if p.trackLocal && n > 0 {
		p.addTau(u, -n)
		p.addTau(v, -n)
		for _, w := range p.scratch {
			p.addTau(w, -1)
		}
	}
	if p.trackEta {
		for _, w := range p.scratch {
			kuw, kvw := graph.Key(u, w), graph.Key(v, w)
			_, a := p.tcnt.bump(kuw, -1)
			_, b := p.tcnt.bump(kvw, -1)
			p.eta -= int64(a) + int64(b)
			if p.etaSum != nil {
				if ab := int64(a) + int64(b); ab != 0 {
					p.addEta(w, -ab)
				}
				if a != 0 {
					p.addEta(u, -int64(a))
				}
				if b != 0 {
					p.addEta(v, -int64(b))
				}
			}
		}
	}
}
