package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// exactOf is a small helper computing ground truth with all options.
func exactOf(stream []graph.Edge) *graph.ExactResult {
	return graph.CountExact(stream, graph.ExactOptions{Local: true, Eta: true, EtaLocal: true})
}

// TestEngineExactWhenM1 pins the degenerate case p = 1: every processor
// samples everything, so the estimate is exact (global and local).
func TestEngineExactWhenM1(t *testing.T) {
	stream := gen.Shuffle(gen.HolmeKim(120, 4, 0.5, 1), 2)
	exact := exactOf(stream)
	for _, c := range []int{1, 3} {
		e, err := NewEngine(Config{M: 1, C: c, Seed: 7, TrackLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		e.AddAll(stream)
		res := e.Result()
		if res.Global != float64(exact.Tau) {
			t.Errorf("c=%d: Global = %v, want exact %d", c, res.Global, exact.Tau)
		}
		for v, want := range exact.TauV {
			if want == 0 {
				continue
			}
			if got := res.Local[v]; got != float64(want) {
				t.Errorf("c=%d: Local[%d] = %v, want %d", c, v, got, want)
			}
		}
		e.Close()
	}
}

// engineConfigs exercises every structural case of the algorithm:
// c < m, c = m, c = c₁m, and c = c₁m + c₂ (Graybill–Deal combination).
var engineConfigs = []Config{
	{M: 1, C: 1},
	{M: 2, C: 1},
	{M: 4, C: 4},
	{M: 5, C: 3},
	{M: 3, C: 6},
	{M: 3, C: 7},
	{M: 2, C: 5},
	{M: 4, C: 9},
}

// TestEngineEqualsSim is the central cross-implementation property: the
// per-processor parallel engine and the shared-structure sim engine must
// produce bit-identical counters for every configuration and stream.
func TestEngineEqualsSim(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 6; trial++ {
		n := 30 + rng.IntN(30)
		edges := gen.ErdosRenyi(n, n*3, uint64(trial+10))
		for _, base := range engineConfigs {
			cfg := base
			cfg.Seed = int64(trial*100 + cfg.M + cfg.C)
			cfg.TrackLocal = true
			cfg.TrackEta = true

			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng.AddAll(edges)
			aggE := eng.Aggregates()
			eng.Close()

			sim, err := NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.AddAll(edges)
			aggS := sim.Aggregates()

			compareAggregates(t, cfg, aggE, aggS)
		}
	}
}

func compareAggregates(t *testing.T, cfg Config, aggE, aggS *Aggregates) {
	t.Helper()
	for i := range aggE.TauProc {
		if aggE.TauProc[i] != aggS.TauProc[i] {
			t.Fatalf("cfg %+v: TauProc[%d]: engine %d, sim %d", cfg, i, aggE.TauProc[i], aggS.TauProc[i])
		}
	}
	if (aggE.EtaProc == nil) != (aggS.EtaProc == nil) {
		t.Fatalf("cfg %+v: EtaProc nil mismatch", cfg)
	}
	for i := range aggE.EtaProc {
		if aggE.EtaProc[i] != aggS.EtaProc[i] {
			t.Fatalf("cfg %+v: EtaProc[%d]: engine %d, sim %d", cfg, i, aggE.EtaProc[i], aggS.EtaProc[i])
		}
	}
	if name := classSumsDiff(aggE, aggS); name != "" {
		t.Fatalf("cfg %+v: %s differs between engine and sim", cfg, name)
	}
}

// TestSimAggregatesFor: a Sim built for C_max must reproduce, for every
// smaller c, exactly the global estimate of a Sim built for that c.
func TestSimAggregatesFor(t *testing.T) {
	edges := gen.ErdosRenyi(60, 240, 5)
	const m, cmax = 4, 11
	big, err := NewSim(Config{M: m, C: cmax, Seed: 21, TrackEta: true})
	if err != nil {
		t.Fatal(err)
	}
	big.AddAll(edges)
	for c := 1; c <= cmax; c++ {
		got, err := big.ResultFor(c)
		if err != nil {
			t.Fatal(err)
		}
		small, err := NewSim(Config{M: m, C: c, Seed: 21, TrackEta: true})
		if err != nil {
			t.Fatal(err)
		}
		small.AddAll(edges)
		want := small.Result()
		if math.Abs(got.Global-want.Global) > 1e-9 {
			t.Errorf("c=%d: ResultFor.Global = %v, dedicated Sim = %v", c, got.Global, want.Global)
		}
	}
	// Out-of-range requests fail.
	if _, err := big.ResultFor(0); err == nil {
		t.Error("ResultFor(0): got nil error")
	}
	if _, err := big.ResultFor(cmax + 1); err == nil {
		t.Error("ResultFor(cmax+1): got nil error")
	}
}

// TestEngineUnbiased checks E[τ̂] = τ and E[τ̂_v] = τ_v statistically, on a
// stream with η = 0 (disjoint triangles) where the variance is exactly
// τ(m²−c)/c, and on a clustered graph.
func TestEngineUnbiased(t *testing.T) {
	const runs = 400
	stream := gen.Shuffle(gen.DisjointTriangles(50), 1)
	exact := exactOf(stream)
	cfg := Config{M: 4, C: 3, TrackLocal: true}

	var sum float64
	localSum := make(map[graph.NodeID]float64)
	for r := 0; r < runs; r++ {
		cfg.Seed = int64(1000 + r)
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.AddAll(stream)
		res := sim.Result()
		sum += res.Global
		for v, x := range res.Local {
			localSum[v] += x
		}
	}
	mean := sum / runs
	tau := float64(exact.Tau)
	sigma := math.Sqrt(VarREPT(cfg.M, cfg.C, tau, float64(exact.Eta)))
	if d := math.Abs(mean - tau); d > 5*sigma/math.Sqrt(runs) {
		t.Errorf("global mean = %v, want %v ± %v", mean, tau, 5*sigma/math.Sqrt(runs))
	}
	// Local estimates: each node has τ_v = 1; mean should be close to 1.
	// Per-node σ_v = sqrt(Var) with τ_v=1, η_v=0: sqrt((m²−c)/c).
	sigmaV := math.Sqrt((16.0 - 3) / 3)
	for v, s := range localSum {
		meanV := s / runs
		if d := math.Abs(meanV - 1); d > 6*sigmaV/math.Sqrt(runs) {
			t.Errorf("local mean at %d = %v, want 1 ± %v", v, meanV, 6*sigmaV/math.Sqrt(runs))
		}
	}
}

// TestEngineVarianceMatchesTheory validates Theorem 3 empirically across
// the three structural cases on a clustered graph with η > 0.
func TestEngineVarianceMatchesTheory(t *testing.T) {
	stream := gen.Shuffle(gen.HolmeKim(150, 5, 0.7, 8), 3)
	exact := exactOf(stream)
	tau, eta := float64(exact.Tau), float64(exact.Eta)
	const runs = 300
	for _, tc := range []struct{ m, c int }{{4, 2}, {4, 4}, {4, 8}} {
		var sum, sumSq float64
		for r := 0; r < runs; r++ {
			sim, err := NewSim(Config{M: tc.m, C: tc.c, Seed: int64(5000 + r)})
			if err != nil {
				t.Fatal(err)
			}
			sim.AddAll(stream)
			g := sim.Result().Global
			sum += g
			sumSq += (g - tau) * (g - tau)
		}
		mse := sumSq / runs
		want := VarREPT(tc.m, tc.c, tau, eta)
		// MSE of an unbiased estimator equals its variance; sampling noise
		// of the empirical MSE over 300 heavy-tailed runs is sizable, so
		// accept a generous band.
		if mse < want/2.5 || mse > want*2.5 {
			t.Errorf("m=%d c=%d: empirical MSE %.1f vs theoretical Var %.1f (ratio %.2f)",
				tc.m, tc.c, mse, want, mse/want)
		}
		mean := sum / runs
		if d := math.Abs(mean - tau); d > 6*math.Sqrt(want/runs) {
			t.Errorf("m=%d c=%d: mean %v, want %v", tc.m, tc.c, mean, tau)
		}
	}
}

// TestEtaHatUnbiased: η̂ = (m³/c)·Σ η⁽ⁱ⁾ is unbiased for η. A sampled
// edge's closing counter must start at 0: the semi-triangles it closes on
// arrival have it as their last edge, not as a wedge edge, so seeding the
// counter with them adds η_mixed/m to E[η̂]: these 400 seeds then read
// 12,171 ± 55 at m = c = 4 and 11,371 ± 86 at m = c = 8, against the
// exact 10,577. Each seed draws a fresh hash family; the gate is 4.5
// empirical standard errors of the mean.
func TestEtaHatUnbiased(t *testing.T) {
	stream := gen.HolmeKim(1500, 5, 0.7, 11)
	eta := float64(exactOf(stream).Eta)
	const runs = 400
	for _, mc := range []int{4, 8} {
		var sum, sumSq float64
		for r := 0; r < runs; r++ {
			sim, err := NewSim(Config{M: mc, C: mc, Seed: int64(7000 + r), TrackEta: true})
			if err != nil {
				t.Fatal(err)
			}
			sim.AddAll(stream)
			h := sim.Result().EtaHat
			sum += h
			sumSq += h * h
		}
		mean := sum / runs
		se := math.Sqrt((sumSq/runs - mean*mean) / (runs - 1))
		t.Logf("m = c = %d: mean η̂ %.0f ± %.0f, exact η %.0f", mc, mean, se, eta)
		if d := math.Abs(mean - eta); d > 4.5*se {
			t.Errorf("m = c = %d: mean η̂ %.0f is %.1f standard errors from exact η %.0f", mc, mean, d/se, eta)
		}
	}
}

// TestScaleRound: Downsample's rounding is exactly unbiased over its coin
// and never leaves the two integers around the quotient.
func TestScaleRound(t *testing.T) {
	xs := []int64{-1 << 40, -1000, -37, -5, -1, 0, 1, 3, 7, 37, 1000, 1 << 40}
	for s := uint(0); s <= 6; s++ {
		for _, x := range xs {
			// Every value of the coin's top s bits, once each: the sum of
			// the results must be x itself, so their mean is exactly x/2^s.
			var sum int64
			for c := uint64(0); c < 1<<s; c++ {
				sum += scaleRound(x, s, c<<(64-s))
			}
			if sum != x {
				t.Errorf("s=%d x=%d: results over all 2^s coins sum to %d, want %d", s, x, sum, x)
			}
		}
	}
	// s = 64, the largest 2·extra the shift bound admits: the result stays
	// in [⌊x/2^64⌋, ⌊x/2^64⌋ + 1], i.e. [−1, 0] for negative x and [0, 1]
	// otherwise.
	rng := rand.New(rand.NewPCG(5, 64))
	for _, x := range append(xs, math.MinInt64, math.MaxInt64) {
		lo := int64(0)
		if x < 0 {
			lo = -1
		}
		for _, coin := range []uint64{0, 1, 1 << 63, ^uint64(0), rng.Uint64(), rng.Uint64()} {
			if got := scaleRound(x, 64, coin); got < lo || got > lo+1 {
				t.Errorf("scaleRound(%d, 64, %#x) = %d, want in [%d, %d]", x, coin, got, lo, lo+1)
			}
		}
	}
}

// TestREPTBeatsParallelMascotVariance reproduces the headline claim on a
// small clustered graph: for c = m the empirical REPT MSE is far below the
// parallel-MASCOT theoretical variance.
func TestREPTBeatsParallelMascotVariance(t *testing.T) {
	// A shuffled complete graph maximizes edge sharing between triangles,
	// so η ≫ τ and the covariance term dominates parallel MASCOT's error.
	stream := gen.Shuffle(gen.Complete(40), 5)
	exact := exactOf(stream)
	tau, eta := float64(exact.Tau), float64(exact.Eta)
	if eta < 10*tau {
		t.Fatalf("test graph not clustered enough: τ=%v η=%v", tau, eta)
	}
	const m, c, runs = 5, 5, 200
	var sumSq float64
	for r := 0; r < runs; r++ {
		sim, err := NewSim(Config{M: m, C: c, Seed: int64(900 + r)})
		if err != nil {
			t.Fatal(err)
		}
		sim.AddAll(stream)
		g := sim.Result().Global
		sumSq += (g - tau) * (g - tau)
	}
	mse := sumSq / runs
	mascot := VarParallelMascot(m, c, tau, eta)
	if mse > mascot/2 {
		t.Errorf("REPT empirical MSE %.1f not well below parallel-MASCOT variance %.1f", mse, mascot)
	}
}

func TestEngineBookkeeping(t *testing.T) {
	eng, err := NewEngine(Config{M: 2, C: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Add(1, 1) // self-loop
	eng.Add(1, 2)
	eng.Add(2, 3)
	eng.AddEdge(graph.Edge{U: 1, V: 3})
	if eng.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", eng.Processed())
	}
	if eng.SelfLoops() != 1 {
		t.Errorf("SelfLoops = %d, want 1", eng.SelfLoops())
	}
	if s := eng.SampledEdges(); s < 0 || s > 6 {
		t.Errorf("SampledEdges = %d out of range", s)
	}
}

// TestEngineSnapshotMidStream: Result may be called mid-stream and the
// engine keeps accepting edges afterwards (interval workloads).
func TestEngineSnapshotMidStream(t *testing.T) {
	stream := gen.Complete(30)
	for _, c := range []int{2, 70} {
		eng, err := NewEngine(Config{M: 1, C: c, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		half := len(stream) / 2
		eng.AddAll(stream[:half])
		mid := eng.Result().Global
		wantMid := float64(graph.CountExact(stream[:half], graph.ExactOptions{}).Tau)
		if mid != wantMid {
			t.Errorf("C=%d: mid-stream Global = %v, want %v", c, mid, wantMid)
		}
		eng.AddAll(stream[half:])
		full := eng.Result().Global
		if want := float64(graph.CountExact(stream, graph.ExactOptions{}).Tau); full != want {
			t.Errorf("C=%d: final Global = %v, want %v", c, full, want)
		}
		eng.Close()
	}
}

// TestEngineCloseSemantics: Close is idempotent, and after it every
// ingest entry point, single-event or batch, panics with ErrClosed.
func TestEngineCloseSemantics(t *testing.T) {
	eng, err := NewEngine(Config{M: 2, C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(1, 2)
	eng.Close()
	eng.Close() // idempotent
	mustPanic(t, ErrClosed, func() { eng.Add(2, 3) })
	mustPanic(t, ErrClosed, func() { eng.ApplyAll([]graph.Update{{U: 2, V: 3}, {U: 3, V: 4}}) })
	mustPanic(t, ErrClosed, func() { eng.AddAll([]graph.Edge{{U: 2, V: 3}}) })
}

// TestDuplicateEdgesPinned documents behaviour on duplicate arrivals:
// engines stay mutually consistent and do not re-insert the edge.
func TestDuplicateEdgesPinned(t *testing.T) {
	stream := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 1}, {U: 0, V: 2}}
	cfg := Config{M: 1, C: 1, Seed: 0, TrackLocal: true, TrackEta: true}
	eng, _ := NewEngine(cfg)
	eng.AddAll(stream)
	aggE := eng.Aggregates()
	eng.Close()
	sim, _ := NewSim(cfg)
	sim.AddAll(stream)
	compareAggregates(t, cfg, aggE, sim.Aggregates())
	// With p=1 the duplicate (0,1) arrival re-counts the triangle, and the
	// last duplicate (0,2) re-counts it again: τ̂ = 3 semi-triangles. This
	// pins the documented garbage-in behaviour.
	if got := aggE.Estimate().Global; got != 3 {
		t.Errorf("duplicate stream Global = %v, want pinned 3", got)
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	edges := gen.HolmeKim(2000, 8, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _ := NewEngine(Config{M: 10, C: 10, Seed: int64(i)})
		eng.AddAll(edges)
		_ = eng.Result()
		eng.Close()
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

func BenchmarkSim(b *testing.B) {
	edges := gen.HolmeKim(2000, 8, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, _ := NewSim(Config{M: 10, C: 10, Seed: int64(i)})
		sim.AddAll(edges)
		_ = sim.Result()
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}
