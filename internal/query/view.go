// Package query is the read path of the concurrent REPT estimator: it
// decouples queries from ingest by periodically materializing an
// immutable epoch View from one barrier snapshot and publishing it via an
// atomic pointer swap. Any number of readers then answer global, local,
// top-K, and clustering-coefficient queries lock-free and barrier-free in
// O(1)/O(log n), with bounded, *reported* staleness (every View carries
// its epoch sequence number, wall-clock capture time, and the processed
// count it describes), while the write path keeps ingesting at full
// speed. A view keeps per-node state flat: it holds the merged class-sum
// tables and a copy of the degree counters, and evaluates τ̂_v from the
// class sums when a query probes a node. Publishing an epoch adds the
// engines' class-sum deltas onto the previous view's tables and re-ranks
// only the nodes they touched (see Publisher), so its cost follows the
// updates, not the graph. CoCoS (Shin et al. 2018) makes the same
// ingest/query split for distributed stream triangle counting; the
// paper's own use cases — spam/sybil detection, community detection,
// recommendation — are query-heavy in exactly this way.
package query

import (
	"math"
	"sort"
	"time"

	"rept/internal/core"
	"rept/internal/graph"
)

// NodeStat is one node's row of a view: its local triangle estimate, its
// stream degree, and the clustering coefficient derived from the two.
type NodeStat struct {
	Node graph.NodeID
	// Local is τ̂_v, the node's local triangle estimate.
	Local float64
	// Degree is the node's stream degree at the view's prefix; 0 when
	// degrees were not tracked.
	Degree uint32
	// CC is the plug-in local clustering coefficient
	// 2·τ̂_v / (d_v·(d_v−1)). NaN when it is undefined: degrees not
	// tracked, locals not tracked, or d_v < 2. Because τ̂_v is an
	// estimate, CC is not clamped and can exceed 1 on small degrees.
	CC float64
}

// View is one immutable materialized epoch: every field describes exactly
// the same stream prefix, captured by a single shard barrier. Views are
// published by a Publisher and shared by any number of readers — nothing
// in a View may be mutated after publication (readers may retain its
// slices indefinitely).
type View struct {
	// Epoch is the view's sequence number, strictly increasing from 1.
	Epoch uint64
	// Taken is the wall-clock time the barrier completed; Age measures
	// staleness against it.
	Taken time.Time
	// Global, Variance, and EtaHat are the merged estimate at the prefix
	// (Variance is NaN when the configuration does not track it).
	Global, Variance, EtaHat float64
	// Processed, Deleted, and SelfLoops are the ingest tallies at the
	// prefix. Processed counts insertions plus deletions (monotone);
	// Deleted is non-zero only for fully-dynamic streams, whose views
	// reflect NET (live-graph) counts.
	Processed, Deleted, SelfLoops uint64
	// SampledEdges is the number of edges stored across all logical
	// processors at the prefix.
	SampledEdges int
	// EtaSaturations counts per-edge closing-counter updates clamped at
	// the int32 boundary at the prefix — 0 on every realistic stream,
	// non-zero when an adversarially hot edge made η̂ a bounded
	// under-estimate instead of wrap-around garbage.
	EtaSaturations uint64
	// TopK holds the K strongest nodes by local estimate, strongest
	// first (ties broken by ascending node id); nil unless local tracking
	// is on.
	TopK []NodeStat

	// counts holds the merged counters whose class sums τ̂_v is evaluated
	// from; nil unless local tracking is on.
	counts *core.Aggregates
	// deg holds the degree counters; nil unless degree tracking is on.
	deg *graph.DegreeCounts
}

// Age returns how far behind wall-clock the view is.
func (v *View) Age() time.Duration { return time.Since(v.Taken) }

// LocalOf returns τ̂_v from the view (0 for unseen nodes or when locals
// are not tracked): a probe of the view's class-sum tables.
func (v *View) LocalOf(n graph.NodeID) float64 {
	if v.counts == nil {
		return 0
	}
	return v.counts.LocalOf(n)
}

// Local returns τ̂_v for every node the view holds a class sum for —
// nodes whose estimate is 0 after deletions included — as a freshly
// built map the caller owns; nil unless local tracking is on. It costs
// O(V); LocalOf answers one node without it.
func (v *View) Local() map[graph.NodeID]float64 {
	if v.counts == nil {
		return nil
	}
	return v.counts.Locals()
}

// DegreeOf returns the node's stream degree at the view's prefix; ok is
// false when degrees are not tracked.
func (v *View) DegreeOf(n graph.NodeID) (deg uint32, ok bool) {
	if v.deg == nil {
		return 0, false
	}
	return v.deg.Degree(n), true
}

// Degrees returns every node's stream degree as a freshly built map the
// caller owns; nil unless degree tracking is on. It costs O(V); DegreeOf
// answers one node without it.
func (v *View) Degrees() map[graph.NodeID]uint32 { return v.deg.Map() }

// CC returns the node's plug-in clustering coefficient
// 2·τ̂_v / (d·(d−1)); ok is false when it is undefined (locals or degrees
// not tracked, or degree < 2).
func (v *View) CC(n graph.NodeID) (cc float64, ok bool) {
	if v.counts == nil || v.deg == nil {
		return math.NaN(), false
	}
	d := float64(v.deg.Degree(n))
	if d < 2 {
		return math.NaN(), false
	}
	return 2 * v.counts.LocalOf(n) / (d * (d - 1)), true
}

// Stat assembles the full NodeStat row for one node.
func (v *View) Stat(n graph.NodeID) NodeStat {
	s := NodeStat{Node: n, Local: v.LocalOf(n), CC: math.NaN()}
	if d, ok := v.DegreeOf(n); ok {
		s.Degree = d
	}
	if cc, ok := v.CC(n); ok {
		s.CC = cc
	}
	return s
}

// Top returns the strongest min(k, len(TopK)) nodes by local estimate.
// The returned slice aliases the view's precomputed ranking and must not
// be modified.
func (v *View) Top(k int) []NodeStat {
	if k < 0 {
		k = 0
	}
	if k > len(v.TopK) {
		k = len(v.TopK)
	}
	return v.TopK[:k]
}

// stronger reports whether a outranks b: higher local estimate first,
// ties broken by ascending node id so rankings are deterministic.
func stronger(a, b NodeStat) bool {
	if a.Local != b.Local {
		return a.Local > b.Local
	}
	return a.Node < b.Node
}

// rank fills TopK with the k strongest of the nodes each feeds, each
// node at most once, using a size-k min-heap — O(n·log k) for n fed
// nodes instead of sorting them — then fills in degrees and clustering
// coefficients from the view under construction.
func (v *View) rank(k int, each func(fn func(n graph.NodeID, local float64))) {
	if v.counts == nil || k <= 0 {
		return
	}
	h := make([]NodeStat, 0, min(k, v.counts.TauV1.Len()+v.counts.TauV2.Len()))
	// The heap root h[0] is the WEAKEST retained node, so replacing the
	// root with anything stronger keeps the strongest k seen so far.
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			weakest := i
			if l < len(h) && stronger(h[weakest], h[l]) {
				weakest = l
			}
			if r < len(h) && stronger(h[weakest], h[r]) {
				weakest = r
			}
			if weakest == i {
				return
			}
			h[i], h[weakest] = h[weakest], h[i]
			i = weakest
		}
	}
	each(func(n graph.NodeID, local float64) {
		ns := NodeStat{Node: n, Local: local}
		if len(h) < k {
			h = append(h, ns)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !stronger(h[p], h[i]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			return
		}
		if stronger(ns, h[0]) {
			h[0] = ns
			siftDown(0)
		}
	})
	sort.Slice(h, func(i, j int) bool { return stronger(h[i], h[j]) })
	for i := range h {
		h[i] = v.Stat(h[i].Node)
	}
	v.TopK = h
}

// rankDelta ranks the previous view's ranking plus the nodes whose class
// sums the delta touched, and reports whether that ranking is exact.
// Every other node kept its class sums, and τ̂_v depends only on v's
// class sums and on M, C and Shift, so each was outranked by the previous
// ranking's weakest member and still is. The ranking is therefore exact
// when the previous one held fewer than k nodes (then it held every node
// with class sums, and the candidates are all of them), or when its
// weakest member is at least as strong as the previous weakest. Only a
// ranking that weakened below that mark may have lost its place to a node
// outside the candidates, and that epoch needs the full scan.
func (v *View) rankDelta(k int, prev *View, delta *core.Aggregates) bool {
	v.rank(k, func(fn func(graph.NodeID, float64)) {
		for _, s := range prev.TopK {
			if !delta.TauV1.Has(s.Node) && !delta.TauV2.Has(s.Node) {
				fn(s.Node, s.Local)
			}
		}
		delta.EachLocal(func(n graph.NodeID, _ float64) { fn(n, v.counts.LocalOf(n)) })
	})
	n := len(prev.TopK)
	return n < k || n == 0 || !stronger(prev.TopK[n-1], v.TopK[n-1])
}
