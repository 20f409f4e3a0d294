package rept_test

import (
	"math"
	"sync"
	"testing"

	"rept"
	"rept/internal/gen"
)

func concurrentStream() []rept.Edge {
	return gen.Shuffle(gen.HolmeKim(500, 5, 0.4, 21), 13)
}

// TestConcurrentMatchesEstimatorEnvelope drives NewConcurrent from many
// goroutines under the race detector and checks the merged estimate lands
// in the same error envelope as a single-caller Estimator on the identical
// stream. The envelope is 6 theoretical standard errors around the exact
// count, evaluated for each estimator's own (M, C).
func TestConcurrentMatchesEstimatorEnvelope(t *testing.T) {
	edges := concurrentStream()
	exact := rept.ExactCount(edges, rept.ExactOptions{Eta: true})
	tau := float64(exact.Tau)
	eta := float64(exact.Eta)

	const m, c = 4, 64
	envelope := 6 * math.Sqrt(rept.TheoreticalVariance(m, c, tau, eta))

	single, err := rept.New(rept.Config{M: m, C: c, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	single.AddAll(edges)
	if diff := math.Abs(single.Global() - tau); diff > envelope {
		t.Fatalf("single-caller Estimator off by %v, envelope %v", diff, envelope)
	}

	conc, err := rept.NewConcurrent(rept.ConcurrentConfig{M: m, C: c, Shards: 4, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	const producers = 6
	var wg sync.WaitGroup
	chunk := (len(edges) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := min(p*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		wg.Add(1)
		go func(part []rept.Edge) {
			defer wg.Done()
			conc.AddAll(part)
		}(edges[lo:hi])
	}
	wg.Wait()

	if got := conc.Processed(); got != uint64(len(edges)) {
		t.Fatalf("Processed = %d, want %d", got, len(edges))
	}
	snap := conc.Snapshot()
	if diff := math.Abs(snap.Global - tau); diff > envelope {
		t.Errorf("Concurrent off by %v, envelope %v (exact %v, got %v)", diff, envelope, tau, snap.Global)
	}
}

// TestConcurrentCounterInterface exercises Concurrent through the shared
// Counter interface, including local estimates.
func TestConcurrentCounterInterface(t *testing.T) {
	edges := concurrentStream()
	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true})

	var ctr rept.Counter
	conc, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 16, Seed: 7, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	ctr = conc
	for _, e := range edges {
		ctr.Add(e.U, e.V)
	}
	tau := float64(exact.Tau)
	if rel := math.Abs(ctr.Global()-tau) / tau; rel > 0.2 {
		t.Errorf("Global = %v, exact = %v", ctr.Global(), tau)
	}

	// Local estimates should be in the right ballpark for a high-count node.
	var hot rept.NodeID
	var hotCount uint64
	for v, n := range exact.TauV {
		if n > hotCount {
			hot, hotCount = v, n
		}
	}
	if hotCount > 0 {
		got := ctr.Local(hot)
		if got <= 0 {
			t.Errorf("Local(%d) = %v for node with exact count %d", hot, got, hotCount)
		}
	}
}

// TestConcurrentCloseContract: using a closed Concurrent panics, closing
// twice does not.
func TestConcurrentCloseContract(t *testing.T) {
	conc, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	conc.Add(1, 2)
	conc.Close()
	conc.Close()
	defer func() {
		if recover() == nil {
			t.Error("Add after Close did not panic")
		}
	}()
	conc.Add(2, 3)
}

func TestNewConcurrentValidation(t *testing.T) {
	for _, cfg := range []rept.ConcurrentConfig{
		{M: 0, C: 8},
		{M: 4, C: 0},
	} {
		if _, err := rept.NewConcurrent(cfg); err == nil {
			t.Errorf("NewConcurrent(%+v) succeeded, want error", cfg)
		}
	}
}

// TestSegmentationInvariant: how the stream is cut into hand-off
// segments must not change results. The first half arrives in AddAll
// bodies of 1, 7 or 4096 edges (the last split into 1024-event
// segments), the rest as per-event Adds straddling them, and every cut
// must give the Global of one AddAll over the first half.
func TestSegmentationInvariant(t *testing.T) {
	edges := concurrentStream()
	half := len(edges) / 2
	run := func(body int) float64 {
		est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 3, C: 9, Shards: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer est.Close()
		for i := 0; i < half; i += body {
			est.AddAll(edges[i:min(i+body, half)])
		}
		for _, e := range edges[half:] {
			est.Add(e.U, e.V)
		}
		return est.Global()
	}
	want := run(half)
	for _, body := range []int{1, 7, 4096} {
		if got := run(body); got != want {
			t.Errorf("%d-edge bodies: Global = %v, one body = %v", body, got, want)
		}
	}
}
