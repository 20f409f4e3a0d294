package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rept/internal/graph"
)

// This file holds testing/quick property tests on the estimator algebra
// and the engine pair, complementing the table-driven tests.

// TestQuickEngineEqualsSim: for arbitrary small random streams and
// arbitrary (m, c) configurations, Engine and Sim agree exactly.
func TestQuickEngineEqualsSim(t *testing.T) {
	f := func(seed uint64, mRaw, cRaw uint8, edgeBits []uint16) bool {
		m := int(mRaw%6) + 1
		c := int(cRaw%13) + 1
		// Decode a stream over 16 nodes from the raw fuzz bytes.
		edges := make([]graph.Edge, 0, len(edgeBits))
		for _, b := range edgeBits {
			edges = append(edges, graph.Edge{
				U: graph.NodeID(b & 0xf),
				V: graph.NodeID((b >> 4) & 0xf),
			})
		}
		cfg := Config{M: m, C: c, Seed: int64(seed % (1 << 30)), TrackLocal: true, TrackEta: true}
		eng, err := NewEngine(cfg)
		if err != nil {
			return false
		}
		eng.AddAll(edges)
		aggE := eng.Aggregates()
		eng.Close()
		sim, err := NewSim(cfg)
		if err != nil {
			return false
		}
		sim.AddAll(edges)
		aggS := sim.Aggregates()
		for i := range aggE.TauProc {
			if aggE.TauProc[i] != aggS.TauProc[i] || aggE.EtaProc[i] != aggS.EtaProc[i] {
				return false
			}
		}
		for v, x := range tableMap(aggE.TauV1) {
			if aggS.TauV1.Get(v) != x {
				return false
			}
		}
		for v, x := range tableMap(aggE.TauV2) {
			if aggS.TauV2.Get(v) != x {
				return false
			}
		}
		for v, x := range tableMap(aggE.EtaV) {
			if aggS.EtaV.Get(v) != x {
				return false
			}
		}
		return aggE.Estimate().Global == aggS.Estimate().Global
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPooledLinearity: in the pure cases (c₁ = 0 or c₂ = 0) the
// estimator is linear in the counters: scaling every τ⁽ⁱ⁾ by k scales τ̂
// by k.
func TestQuickPooledLinearity(t *testing.T) {
	f := func(mRaw, cRaw uint8, counts []uint16, kRaw uint8) bool {
		m := int(mRaw%8) + 1
		c := int(cRaw%4+1) * m // multiple of m => pure case
		k := int64(kRaw%7) + 2
		tp := make([]int64, c)
		for i := range tp {
			if len(counts) > 0 {
				tp[i] = int64(counts[i%len(counts)])
			}
		}
		scaled := make([]int64, c)
		for i := range tp {
			scaled[i] = tp[i] * k
		}
		a1 := &Aggregates{M: m, C: c, TauProc: tp}
		a2 := &Aggregates{M: m, C: c, TauProc: scaled}
		g1 := a1.Estimate().Global
		g2 := a2.Estimate().Global
		return math.Abs(g2-float64(k)*g1) < 1e-6*(1+math.Abs(g2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCombinationBounded: the Graybill–Deal combination is a convex
// combination, so τ̂ always lies between τ̂⁽¹⁾ and τ̂⁽²⁾.
func TestQuickCombinationBounded(t *testing.T) {
	f := func(mRaw uint8, c2Raw uint8, c1Raw uint8, s1, s2, e uint16) bool {
		m := int(mRaw%8) + 2
		c1 := int(c1Raw%3) + 1
		c2 := int(c2Raw)%(m-1) + 1
		c := c1*m + c2
		tp := make([]int64, c)
		// Spread sum1 over full-group processors and sum2 over partial.
		tp[0] = int64(s1)
		tp[c1*m] = int64(s2)
		ep := make([]int64, c)
		ep[0] = int64(e)
		agg := &Aggregates{M: m, C: c, TauProc: tp, EtaProc: ep}
		est := agg.Estimate()

		mf := float64(m)
		t1 := mf / float64(c1) * float64(s1)
		t2 := mf * mf / float64(c2) * float64(s2)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return est.Global >= lo-1e-9 && est.Global <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickVarREPTMonotoneInC: for fixed m, REPT's theoretical variance is
// non-increasing in c at the group boundaries c = c₁·m (more processors
// never hurt).
func TestQuickVarREPTMonotoneInC(t *testing.T) {
	f := func(mRaw uint8, tauRaw, etaRaw uint16) bool {
		m := int(mRaw%12) + 2
		tau := float64(tauRaw) + 1
		eta := float64(etaRaw)
		prev := math.Inf(1)
		for c1 := 1; c1 <= 6; c1++ {
			v := VarREPT(m, c1*m, tau, eta)
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickVarREPTBelowMascot: REPT's variance never exceeds parallel
// MASCOT's for the same (m, c) — the paper's central inequality.
func TestQuickVarREPTBelowMascot(t *testing.T) {
	f := func(mRaw, cRaw uint8, tauRaw, etaRaw uint16) bool {
		m := int(mRaw%15) + 2
		c := int(cRaw%40) + 1
		tau := float64(tauRaw) + 1
		eta := float64(etaRaw)
		return VarREPT(m, c, tau, eta) <= VarParallelMascot(m, c, tau, eta)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSampledEdgesConcentrate: the total stored edges across
// processors concentrates around C/M·|E| (memory model check).
func TestQuickSampledEdgesConcentrate(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 5; trial++ {
		m := rng.IntN(6) + 2
		c := rng.IntN(2*m) + 1
		const n = 3000
		eng, err := NewEngine(Config{M: m, C: c, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			eng.Add(graph.NodeID(rng.IntN(1000)), graph.NodeID(rng.IntN(1000)))
		}
		edges := float64(eng.Processed()) // distinct-ish; collisions rare but possible
		want := edges * float64(c) / float64(m)
		got := float64(eng.SampledEdges())
		if got < want*0.8-30 || got > want*1.2+30 {
			t.Errorf("m=%d c=%d: SampledEdges = %v, want ≈ %v", m, c, got, want)
		}
		eng.Close()
	}
}
