package core

import (
	"fmt"
	"math"

	"rept/internal/graph"
)

// Aggregates holds the per-processor counters gathered from an engine,
// reduced just enough to evaluate the paper's estimators. TauProc[i] is
// τ⁽ⁱ⁾, the number of semi-triangles observed by logical processor i;
// EtaProc[i] is η⁽ⁱ⁾ (nil when η was not tracked).
//
// Local counters are pre-summed over the two processor classes the
// estimators distinguish: class 1 is the c₁ full groups (τ̂⁽¹⁾), class 2
// the partial group (τ̂⁽²⁾). For c ≤ m all processors form one partial
// group (c₁ = 0), so TauV1 is empty and TauV2 carries everything, which
// makes Algorithm 1 the c₁ = 0 special case of Algorithm 2. The sums are
// flat graph.NodeTables: a report carries none of them
// (Engine.ProcCounters), one node's entries (NodeCounters), copies of the
// engine's whole tables (Aggregates), or the engine's delta since the
// previous TakeDelta, and MergeGroups sums any of these across shards
// with graph.SumTables. Gathering, merging
// and publishing them builds no Go map; LocalOf and EachLocal evaluate
// τ̂_v from them on demand, and only Estimate materializes the full Local
// map.
// Counters are signed: in fully-dynamic mode individual processors can
// hold transiently negative τ⁽ⁱ⁾/η⁽ⁱ⁾ (see proc); insert-only streams
// never produce negative values.
type Aggregates struct {
	M, C int
	// Shift is the cumulative sample down-shift the counters were gathered
	// under (see Engine.Downsample): the effective sampling denominator is
	// M·2^Shift. Non-zero Shift implies η was not tracked and routes the
	// estimate through the pooled estimator at the effective denominator.
	Shift   int
	TauProc []int64
	EtaProc []int64

	TauV1 *graph.NodeTable[int64] // Σ τ⁽ⁱ⁾_v over full-group processors
	TauV2 *graph.NodeTable[int64] // Σ τ⁽ⁱ⁾_v over partial-group processors
	EtaV  *graph.NodeTable[int64] // Σ η⁽ⁱ⁾_v over all processors
}

// Estimate holds the REPT output.
type Estimate struct {
	// Global is τ̂, the estimated number of triangles in the stream — the
	// NET (live-graph) count in fully-dynamic mode, where small samples
	// can produce slightly negative values (the estimator is unbiased;
	// clamping would bias it upward).
	Global float64
	// Local is τ̂_v for every node that appeared in at least one sampled
	// semi-triangle; absent nodes have estimate 0. Nil unless the engine
	// tracked local counts.
	Local map[graph.NodeID]float64
	// EtaHat is η̂ = (m³/c)·Σ η⁽ⁱ⁾ when η was tracked, else 0.
	EtaHat float64
	// Variance is the plug-in estimate of Var(τ̂): the paper's closed form
	// (Theorem 3 / Section III-B) with τ̂ and η̂ substituted for τ and η.
	// It supports confidence intervals (τ̂ ± z·sqrt(Variance)) without a
	// second pass. NaN when the needed η counters were not tracked (set
	// Config.TrackEta to force them); the c = c₁m case needs no η and is
	// always available.
	Variance float64
	// Combined reports whether the Graybill–Deal inverse-variance
	// combination of τ̂⁽¹⁾ and τ̂⁽²⁾ was used (c > m with c % m ≠ 0).
	Combined bool
}

// StdErr returns sqrt(Variance) (NaN when Variance is unavailable).
func (e Estimate) StdErr() float64 { return math.Sqrt(e.Variance) }

// Estimate evaluates the paper's estimators on the gathered counters,
// the per-node ones included.
func (a *Aggregates) Estimate() Estimate {
	est := a.GlobalEstimate()
	est.Local = a.Locals()
	return est
}

// GlobalEstimate is Estimate without the per-node estimates: its Local map
// is nil, whatever the counters track.
func (a *Aggregates) GlobalEstimate() Estimate {
	lay := a.evalLayout()
	m := float64(lay.m)

	var sum1, sum2, etaSum int64
	for i, t := range a.TauProc {
		if lay.isPartialProc(i) {
			sum2 += t
		} else {
			sum1 += t
		}
	}
	for _, h := range a.EtaProc {
		etaSum += h
	}

	est := Estimate{}
	if a.EtaProc != nil {
		est.EtaHat = m * m * m * float64(etaSum) / float64(a.C)
	}
	est.Global, est.Combined = combine(lay, float64(sum1), float64(sum2), est.EtaHat)
	est.Variance = plugInVariance(lay, a.EtaProc != nil, est.Global, est.EtaHat)
	return est
}

// evalLayout is the layout the estimators evaluate the counters under.
func (a *Aggregates) evalLayout() layout {
	if a.Shift > 0 {
		// Downsampled counters: the group structure of the original layout
		// no longer partitions the effective denominator m·2^Shift into
		// whole groups, so every processor is treated as one partial-class
		// cell at the effective denominator and combine evaluates the
		// pooled estimator m_eff²·Στ/c — unbiased for any processor count.
		return layout{m: a.M << uint(a.Shift), c: a.C, c2: a.C, groups: 1}
	}
	return newLayout(a.M, a.C)
}

// TracksLocal reports whether the counters carry per-node class sums.
func (a *Aggregates) TracksLocal() bool { return a.TauV1 != nil || a.TauV2 != nil }

// LocalOf returns τ̂_v, the local estimate of node v: 0 for a node no class
// sum holds, or when local counts were not tracked.
func (a *Aggregates) LocalOf(v graph.NodeID) float64 {
	return a.localAt(a.evalLayout(), v, a.TauV1.Get(v), a.TauV2.Get(v))
}

// EachLocal calls fn with τ̂_v once for every node some class sum holds —
// every node that appeared in a sampled semi-triangle, including nodes
// whose estimate has netted back to 0 after deletions — in unspecified
// order.
func (a *Aggregates) EachLocal(fn func(v graph.NodeID, local float64)) {
	lay := a.evalLayout()
	a.TauV1.Each(func(v graph.NodeID, t1 int64) {
		fn(v, a.localAt(lay, v, t1, a.TauV2.Get(v)))
	})
	a.TauV2.Each(func(v graph.NodeID, t2 int64) {
		if !a.TauV1.Has(v) {
			fn(v, a.localAt(lay, v, 0, t2))
		}
	})
}

// Locals returns EachLocal's estimates as a freshly built map the caller
// owns; nil unless the counters track local counts.
func (a *Aggregates) Locals() map[graph.NodeID]float64 {
	if !a.TracksLocal() {
		return nil
	}
	out := make(map[graph.NodeID]float64, max(a.TauV1.Len(), a.TauV2.Len()))
	a.EachLocal(func(v graph.NodeID, local float64) { out[v] = local })
	return out
}

// localAt is the one per-node evaluation: combine over v's class sums t1
// and t2, with η̂_v when the counters carry it.
func (a *Aggregates) localAt(lay layout, v graph.NodeID, t1, t2 int64) float64 {
	var etaV float64
	if a.EtaV != nil {
		m := float64(lay.m)
		etaV = m * m * m * float64(a.EtaV.Get(v)) / float64(a.C)
	}
	g, _ := combine(lay, float64(t1), float64(t2), etaV)
	return g
}

// combine evaluates τ̂ from the class sums. sum1 is Σ τ⁽ⁱ⁾ over full-group
// processors, sum2 over partial-group processors, etaHat the η̂ estimate
// (used only when both classes are non-empty).
//
// Paper estimators:
//
//	c ≤ m:          τ̂ = (m²/c)·Σ τ⁽ⁱ⁾                       (Algorithm 1)
//	c = c₁m:        τ̂ = (m/c₁)·Σ τ⁽ⁱ⁾                        (Section III-B.1)
//	c = c₁m + c₂:   τ̂⁽¹⁾ = (m/c₁)·Σ₁,  τ̂⁽²⁾ = (m²/c₂)·Σ₂,
//	                w⁽¹⁾ = τ̂⁽¹⁾(m−1)/c₁,
//	                w⁽²⁾ = (τ̂⁽¹⁾(m²−c₂) + 2η̂(m−c₂))/c₂,
//	                τ̂ = (w⁽²⁾τ̂⁽¹⁾ + w⁽¹⁾τ̂⁽²⁾)/(w⁽¹⁾+w⁽²⁾)   (Algorithm 2)
//
// When both variance proxies are zero (e.g. no semi-triangles were seen)
// the combination degenerates; we fall back to the unbiased pooled
// estimator m²·(Σ₁+Σ₂)/c, which coincides with the paper's estimator in
// the pure cases.
func combine(lay layout, sum1, sum2, etaHat float64) (float64, bool) {
	m := float64(lay.m)
	pooled := m * m * (sum1 + sum2) / float64(lay.c)
	if lay.c1 == 0 || lay.c2 == 0 {
		// Single-class cases: pooled is exactly the paper's estimator.
		return pooled, false
	}
	c1, c2 := float64(lay.c1), float64(lay.c2)
	t1 := m / c1 * sum1
	t2 := m * m / c2 * sum2
	w1 := t1 * (m - 1) / c1
	w2 := (t1*(m*m-c2) + 2*etaHat*(m-c2)) / c2
	if w1+w2 <= 0 {
		return pooled, false
	}
	return (w2*t1 + w1*t2) / (w1 + w2), true
}

// plugInVariance evaluates the paper's closed-form variance with the
// estimates substituted for the true τ and η. Negative plug-ins are
// clamped to zero; NaN when η is required but was not tracked.
func plugInVariance(lay layout, haveEta bool, tauHat, etaHat float64) float64 {
	if tauHat < 0 {
		tauHat = 0
	}
	if etaHat < 0 {
		etaHat = 0
	}
	// The c = c₁m case (including m = 1) needs no η.
	etaFree := lay.c1 > 0 && lay.c2 == 0
	if !haveEta && !etaFree {
		return math.NaN()
	}
	return VarREPT(lay.m, lay.c, tauHat, etaHat)
}

// SanityCheck verifies structural invariants of the aggregates (lengths
// consistent with C, non-nil slices). It is used by tests and the harness.
func (a *Aggregates) SanityCheck() error {
	if len(a.TauProc) != a.C {
		return fmt.Errorf("core: TauProc has %d entries, want C=%d", len(a.TauProc), a.C)
	}
	if a.EtaProc != nil && len(a.EtaProc) != a.C {
		return fmt.Errorf("core: EtaProc has %d entries, want C=%d", len(a.EtaProc), a.C)
	}
	if a.Shift != 0 && a.EtaProc != nil {
		return fmt.Errorf("core: Shift=%d with η counters present (downsampling is unavailable under η tracking)", a.Shift)
	}
	if a.Shift < 0 {
		return fmt.Errorf("core: negative Shift=%d", a.Shift)
	}
	return nil
}
