package core

import (
	"rept/internal/graph"
	"rept/internal/hashing"
	"rept/internal/mem"
)

// proc is the state of one logical REPT processor in the parallel Engine.
// It counts the semi-triangles every stream edge closes against its
// sampled set but stores only the edges its group hash colors with its
// own color — the paper's distributed-memory model where each processor
// keeps an expected p·|E| edges. The engine's walk visits it only for the
// edges it stores and the edges whose endpoints its sample both holds:
// for every other edge the intersection is empty and nothing moves.
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

	adj *graph.Adjacency

	tau  int64
	eta  int64
	tauV map[graph.NodeID]int64
	etaV map[graph.NodeID]int64
	// tcnt holds τ⁽ⁱ⁾_g: the signed number of semi-triangle closings in
	// Δ⁽ⁱ⁾ involving the sampled edge g as a wedge edge — the per-edge
	// counters Algorithm 2 uses to maintain η⁽ⁱ⁾ incrementally. Entries
	// exist for exactly the sampled edges; deletion of a sampled edge
	// removes its entry (a re-insertion re-derives it from the current
	// sampled graph). Stored in a flat open-addressing table keyed by the
	// canonical 64-bit edge key, with saturating counter arithmetic (see
	// ctab).
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

	// masks is the presence-mask table of this processor's 64-processor
	// block (NodeID → bitmask of the block's processors whose sampled
	// adjacency contains the node) and maskBit is this processor's bit.
	// Every sample mutation keeps them current; the engine's walk reads
	// them.
	masks   *graph.MaskTable
	maskBit uint64

	// shift is the cumulative sample down-shift (see Engine.Downsample):
	// the effective sampling probability is p/2^shift, realized by the
	// extra keep filter in keeps. downSeed seeds that filter, derived per
	// group so different groups stay mutually independent after
	// downsampling, exactly as their color hashes are.
	shift    uint
	downSeed uint64

	scratch []graph.NodeID

	// ac/acLocal reconcile the per-node counter maps (tauV, etaV) against
	// the byte ledger under mem.CompCounters. The maps mutate on the hot
	// path, so the reconciliation runs only at the engine's reporting
	// points (Aggregates, State, Downsample) — the ledger for this slice of
	// CompCounters is barrier-fresh rather than transition-exact, which is
	// what its consumers (metrics scrapes, controller ticks) need.
	ac      *mem.Accountant
	acLocal int64
}

func newProc(group, color int, trackLocal, trackEta bool, downSeed uint64, ac *mem.Accountant) *proc {
	p := &proc{
		group:      group,
		color:      color,
		trackLocal: trackLocal,
		trackEta:   trackEta,
		downSeed:   downSeed,
		adj:        graph.NewAdjacency(),
		ac:         ac,
	}
	p.adj.SetAccountant(ac)
	if trackLocal {
		p.tauV = make(map[graph.NodeID]int64)
		if trackEta {
			p.etaV = make(map[graph.NodeID]int64)
		}
	}
	if trackEta {
		p.tcnt = newCtab(ac)
	}
	return p
}

// localCounterEntryBytes is the amortized accounting estimate for one
// per-node counter map entry (4-byte NodeID key, 8-byte int64 value, plus
// Go map bucket overhead — same convention as the view maps).
const localCounterEntryBytes = 28

// reaccountLocal reconciles the per-node counter maps' footprint against
// the ledger. Called only from the engine's reporting points, never per
// event.
func (p *proc) reaccountLocal() {
	b := int64(len(p.tauV)+len(p.etaV)) * localCounterEntryBytes
	p.ac.Add(mem.CompCounters, b-p.acLocal)
	p.acLocal = b
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

// processEdge implements UpdateTriangleCNT / UpdateTrianglePairCNT from
// Algorithms 1 and 2 followed by the conditional insertion of the edge
// into E⁽ⁱ⁾. The caller filters self-loops and precomputes the edge's
// color under the processor's group hash once per (edge, group), since
// all m processors of a group share the hash.
//
//rept:hotpath
func (p *proc) processEdge(u, v graph.NodeID, key uint64, color int) {
	var n int64
	if p.trackLocal || p.trackEta {
		p.scratch = p.adj.CommonNeighbors(u, v, p.scratch[:0])
		n = int64(len(p.scratch))
	} else {
		// Counting-only configuration: skip materializing the common
		// neighbors, the intersection size is all τ⁽ⁱ⁾ needs.
		n = int64(p.adj.CommonCount(u, v))
	}
	p.tau += n
	if p.trackLocal && n > 0 {
		p.tauV[u] += n
		p.tauV[v] += n
		for _, w := range p.scratch {
			p.tauV[w]++
		}
	}
	if p.trackEta {
		for _, w := range p.scratch {
			kuw, kvw := graph.Key(u, w), graph.Key(v, w)
			a, _ := p.tcnt.bump(kuw, 1)
			b, _ := p.tcnt.bump(kvw, 1)
			p.eta += int64(a) + int64(b)
			if p.etaV != nil {
				if ab := int64(a) + int64(b); ab != 0 {
					p.etaV[w] += ab
				}
				if a != 0 {
					p.etaV[u] += int64(a)
				}
				if b != 0 {
					p.etaV[v] += int64(b)
				}
			}
		}
	}
	if color == p.color && p.keeps(key) {
		added, newU, newV := p.adj.AddReport(u, v)
		if added {
			if p.trackEta {
				p.tcnt.setClamped(key, n)
			}
			if newU {
				p.masks.Or(u, p.maskBit)
			}
			if newV {
				p.masks.Or(v, p.maskBit)
			}
		}
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
func (p *proc) deleteEdge(u, v graph.NodeID, key uint64, color int) {
	if color == p.color && p.keeps(key) {
		removed, goneU, goneV := p.adj.RemoveReport(u, v)
		if removed {
			p.di++
			if p.trackEta {
				p.tcnt.del(key)
			}
			if goneU {
				p.masks.AndNot(u, p.maskBit)
			}
			if goneV {
				p.masks.AndNot(v, p.maskBit)
			}
		} else {
			p.phantom++
		}
	}
	var n int64
	if p.trackLocal || p.trackEta {
		p.scratch = p.adj.CommonNeighbors(u, v, p.scratch[:0])
		n = int64(len(p.scratch))
	} else {
		n = int64(p.adj.CommonCount(u, v))
	}
	p.tau -= n
	if p.trackLocal && n > 0 {
		p.tauV[u] -= n
		p.tauV[v] -= n
		for _, w := range p.scratch {
			p.tauV[w]--
		}
	}
	if p.trackEta {
		for _, w := range p.scratch {
			kuw, kvw := graph.Key(u, w), graph.Key(v, w)
			_, a := p.tcnt.bump(kuw, -1)
			_, b := p.tcnt.bump(kvw, -1)
			p.eta -= int64(a) + int64(b)
			if p.etaV != nil {
				if ab := int64(a) + int64(b); ab != 0 {
					p.etaV[w] -= ab
				}
				if a != 0 {
					p.etaV[u] -= int64(a)
				}
				if b != 0 {
					p.etaV[v] -= int64(b)
				}
			}
		}
	}
}
