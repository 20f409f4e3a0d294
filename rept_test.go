package rept_test

import (
	"math"
	"path/filepath"
	"testing"

	"rept"
	"rept/internal/gen"
)

func TestEstimatorExactWhenM1(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(150, 4, 0.5, 1), 2)
	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true})

	est, err := rept.New(rept.Config{M: 1, C: 1, Seed: 1, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(edges)
	res := est.Result()
	if res.Global != float64(exact.Tau) {
		t.Errorf("Global = %v, want %d", res.Global, exact.Tau)
	}
	for v, want := range exact.TauV {
		if want != 0 && res.Local[v] != float64(want) {
			t.Errorf("Local[%d] = %v, want %d", v, res.Local[v], want)
		}
	}
	if est.Processed() != uint64(len(edges)) {
		t.Errorf("Processed = %d, want %d", est.Processed(), len(edges))
	}
}

func TestEstimatorApproximates(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(400, 6, 0.5, 3), 4)
	exact := rept.ExactCount(edges, rept.ExactOptions{Eta: true})
	tau := float64(exact.Tau)

	est, err := rept.New(rept.Config{M: 4, C: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(edges)
	got := est.Global()
	sigma := math.Sqrt(rept.TheoreticalVariance(4, 4, tau, float64(exact.Eta)))
	if math.Abs(got-tau) > 6*sigma {
		t.Errorf("Global = %v, want %v ± %v", got, tau, 6*sigma)
	}
	// Memory model: about C/M of the stream is stored in total.
	sampled := float64(est.SampledEdges())
	want := float64(len(edges)) // C/M = 1
	if sampled < want/2 || sampled > want*2 {
		t.Errorf("SampledEdges = %v, want about %v", sampled, want)
	}
}

func TestEstimatorDeterministic(t *testing.T) {
	edges := gen.ErdosRenyi(200, 1200, 5)
	run := func(bulk bool) float64 {
		est, err := rept.New(rept.Config{M: 5, C: 7, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer est.Close()
		if bulk {
			est.AddAll(edges)
		} else {
			for _, e := range edges {
				est.Add(e.U, e.V)
			}
		}
		return est.Global()
	}
	if run(true) != run(true) {
		t.Error("same config, different estimates")
	}
	if run(true) != run(false) {
		t.Error("the ingest entry point changed the estimate")
	}
}

// TestEstimatorPointReadsMatchResult checks that Global and Local, which
// read one number, agree bit for bit with Result's Global and Local map,
// and that they no longer pay for every node's estimate: Local allocates
// nothing and Global only the per-processor counter slices. C=25 leaves
// a partial group, so η and its class sum are tracked too.
func TestEstimatorPointReadsMatchResult(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(3000, 6, 0.5, 5), 6)
	for _, c := range []int{20, 25} {
		est, err := rept.New(rept.Config{M: 10, C: c, Seed: 9, TrackLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		defer est.Close()
		est.AddAll(edges)
		res := est.Result()
		if len(res.Local) == 0 {
			t.Fatalf("C=%d: no local estimates", c)
		}
		if g := est.Global(); math.Float64bits(g) != math.Float64bits(res.Global) {
			t.Errorf("C=%d: Global() = %v, Result().Global = %v", c, g, res.Global)
		}
		for v, want := range res.Local {
			if got := est.Local(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("C=%d: Local(%d) = %v, Result().Local = %v", c, v, got, want)
			}
		}
		var v rept.NodeID
		for v = range res.Local {
			break
		}
		if n := testing.AllocsPerRun(100, func() { est.Local(v) }); n != 0 {
			t.Errorf("C=%d: Local allocates %.0f times per call, want 0", c, n)
		}
		if n := testing.AllocsPerRun(100, func() { est.Global() }); n > 3 {
			t.Errorf("C=%d: Global allocates %.0f times per call, want at most 3", c, n)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := rept.New(rept.Config{M: 0, C: 1}); err == nil {
		t.Error("New(M=0): got nil error")
	}
	if _, err := rept.New(rept.Config{M: 2, C: 0}); err == nil {
		t.Error("New(C=0): got nil error")
	}
}

func TestBaselineConstructors(t *testing.T) {
	if _, err := rept.NewMascot(0, 1, false); err == nil {
		t.Error("NewMascot(0): got nil error")
	}
	if _, err := rept.NewTriest(1, 1, false); err == nil {
		t.Error("NewTriest(1): got nil error")
	}
	if _, err := rept.NewGPS(0, 1, false); err == nil {
		t.Error("NewGPS(0): got nil error")
	}
	if _, err := rept.NewParallel("nope", 2, 10, 1, false, 1); err == nil {
		t.Error("NewParallel(unknown kind): got nil error")
	}
	if _, err := rept.NewParallel(rept.KindMascot, 2, 0, 1, false, 1); err == nil {
		t.Error("NewParallel(mascot, budget 0): got nil error")
	}
}

// TestCounterInterface exercises every estimator through the common
// Counter interface on the same stream.
func TestCounterInterface(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(200, 5, 0.6, 2), 7)
	exact := rept.ExactCount(edges, rept.ExactOptions{})
	tau := float64(exact.Tau)

	reptEst, err := rept.New(rept.Config{M: 2, C: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer reptEst.Close()
	mascot, err := rept.NewMascot(0.5, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	triest, err := rept.NewTriest(len(edges)/2, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	gps, err := rept.NewGPS(len(edges)/2, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := rept.NewParallel(rept.KindMascot, 4, 2, 3, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	counters := map[string]rept.Counter{
		"rept": reptEst, "mascot": mascot, "triest": triest, "gps": gps, "parallel-mascot": par,
	}
	for name, c := range counters {
		for _, e := range edges {
			c.Add(e.U, e.V)
		}
		got := c.Global()
		if got < tau/4 || got > tau*4 {
			t.Errorf("%s: Global = %v, want within 4x of %v", name, got, tau)
		}
	}
}

func TestExactCountFacade(t *testing.T) {
	edges := []rept.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}}
	res := rept.ExactCount(edges, rept.ExactOptions{Local: true, Eta: true, EtaLocal: true})
	if res.Tau != 1 || res.Nodes != 4 || res.Edges != 4 {
		t.Errorf("ExactCount = %+v, want τ=1 nodes=4 edges=4", res)
	}
	if res.TauV[0] != 1 || res.TauV[3] != 0 {
		t.Errorf("TauV = %v", res.TauV)
	}
}

func TestEdgeListFacadeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	edges := []rept.Edge{{U: 3, V: 4}, {U: 4, V: 5}}
	if err := rept.WriteEdgeListFile(path, edges); err != nil {
		t.Fatal(err)
	}
	back, err := rept.ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != edges[0] || back[1] != edges[1] {
		t.Fatalf("round trip got %v, want %v", back, edges)
	}
}

func TestPlanProcessors(t *testing.T) {
	cases := []struct {
		c, m, mem, stream int
		want              int
	}{
		{c: 32, m: 10, mem: 1000000, stream: 100000, want: 32}, // plenty of memory
		{c: 32, m: 10, mem: 100000, stream: 100000, want: 10},  // 10 procs × 10k
		{c: 32, m: 10, mem: 5000, stream: 100000, want: 1},     // tight; floor at 1
		{c: 4, m: 1, mem: 100, stream: 1000, want: 1},          // p = 1 stores everything
		{c: 0, m: 10, mem: 100, stream: 1000, want: 1},         // degenerate inputs
		{c: 8, m: 10, mem: 100, stream: 0, want: 1},
	}
	for _, tc := range cases {
		if got := rept.PlanProcessors(tc.c, tc.m, tc.mem, tc.stream); got != tc.want {
			t.Errorf("PlanProcessors(%d,%d,%d,%d) = %d, want %d",
				tc.c, tc.m, tc.mem, tc.stream, got, tc.want)
		}
	}
}

func TestTheoryFacade(t *testing.T) {
	if got, want := rept.TheoreticalVariance(10, 10, 100, 0), 900.0; got != want {
		t.Errorf("TheoreticalVariance = %v, want %v", got, want)
	}
	if got, want := rept.ParallelMascotVariance(10, 1, 100, 0), 9900.0; got != want {
		t.Errorf("ParallelMascotVariance = %v, want %v", got, want)
	}
	if got, want := rept.TheoreticalNRMSE(900, 100), 0.3; math.Abs(got-want) > 1e-12 {
		t.Errorf("TheoreticalNRMSE = %v, want %v", got, want)
	}
}
