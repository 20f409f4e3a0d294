package rept_test

import (
	"math"
	"path/filepath"
	"testing"

	"rept"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/stream"
)

// TestPipelineFileToEstimate exercises the full user pipeline: generate a
// stream, write it to disk, stream it back through a FileSource with
// dedup, estimate with REPT, and compare against exact ground truth.
func TestPipelineFileToEstimate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.txt")

	edges := gen.Shuffle(gen.HolmeKim(800, 6, 0.5, 7), 3)
	// Inject noise the pipeline must clean: duplicates and self-loops.
	noisy := make([]graph.Edge, 0, len(edges)+20)
	noisy = append(noisy, edges...)
	for i := 0; i < 10; i++ {
		noisy = append(noisy, edges[i*3], graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i)})
	}
	if err := rept.WriteEdgeListFile(path, noisy); err != nil {
		t.Fatal(err)
	}

	src, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	clean := stream.Dedup(src, true)

	est, err := rept.New(rept.Config{M: 4, C: 8, Seed: 5, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if err := stream.Drain(clean, func(e graph.Edge) { est.Add(e.U, e.V) }); err != nil {
		t.Fatal(err)
	}
	if clean.Duplicates() != 10 || clean.SelfLoops() != 10 {
		t.Errorf("dedup saw %d dups, %d loops; want 10, 10", clean.Duplicates(), clean.SelfLoops())
	}

	exact := rept.ExactCount(edges, rept.ExactOptions{Eta: true})
	tau := float64(exact.Tau)
	sigma := math.Sqrt(rept.TheoreticalVariance(4, 8, tau, float64(exact.Eta)))
	if got := est.Global(); math.Abs(got-tau) > 6*sigma {
		t.Errorf("Global = %v, want %v ± %v", got, tau, 6*sigma)
	}
	if est.Processed() != uint64(len(edges)) {
		t.Errorf("Processed = %d, want %d deduped edges", est.Processed(), len(edges))
	}
}

// TestIntervalWorkflow pins the per-interval workload from paper §II: a
// fresh estimator per interval, mid-stream snapshots on a shared one.
func TestIntervalWorkflow(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(600, 5, 0.5, 9), 11)
	windows := stream.Intervals(edges, 4)

	// Per-interval estimators see only their window.
	var perWindow []float64
	for i, win := range windows {
		est, err := rept.New(rept.Config{M: 3, C: 3, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		est.AddAll(win)
		perWindow = append(perWindow, est.Global())
		est.Close()
	}
	// A shared estimator snapshots cumulative counts; the final snapshot
	// covers the whole stream.
	shared, err := rept.New(rept.Config{M: 3, C: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	var cumulative []float64
	for _, win := range windows {
		shared.AddAll(win)
		cumulative = append(cumulative, shared.Global())
	}
	for i := 1; i < len(cumulative); i++ {
		if cumulative[i] < cumulative[i-1] {
			t.Errorf("cumulative estimate decreased: %v", cumulative)
		}
	}
	exact := rept.ExactCount(edges, rept.ExactOptions{Eta: true})
	tau := float64(exact.Tau)
	sigma := math.Sqrt(rept.TheoreticalVariance(3, 3, tau, float64(exact.Eta)))
	if math.Abs(cumulative[3]-tau) > 6*sigma {
		t.Errorf("final snapshot = %v, want %v ± %v", cumulative[3], tau, 6*sigma)
	}
	// Interval sums differ from the full count (cross-window triangles),
	// pinning that intervals are independent streams.
	sum := 0.0
	for _, x := range perWindow {
		sum += x
	}
	if sum > cumulative[3] {
		t.Logf("per-window sum %v vs cumulative %v (cross-window triangles)", sum, cumulative[3])
	}
}

// TestExtremeNodeIDs: estimators must handle the full uint32 id range.
func TestExtremeNodeIDs(t *testing.T) {
	const maxID = rept.NodeID(^uint32(0))
	edges := []rept.Edge{
		{U: 0, V: maxID},
		{U: maxID, V: maxID - 1},
		{U: maxID - 1, V: 0}, // closes triangle {0, maxID-1, maxID}
		{U: 1, V: maxID},     // extra wedges
		{U: 1, V: maxID - 1}, // closes triangle {1, maxID-1, maxID}
	}
	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true})
	if exact.Tau != 2 {
		t.Fatalf("exact Tau = %d, want 2", exact.Tau)
	}
	est, err := rept.New(rept.Config{M: 1, C: 1, Seed: 1, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(edges)
	if got := est.Global(); got != 2 {
		t.Errorf("Global = %v, want 2", got)
	}
	if got := est.Local(maxID); got != 2 {
		t.Errorf("Local(maxID) = %v, want 2", got)
	}
}

// TestTriangleFreeStreams: all estimators report exactly zero on
// triangle-free graphs at any sampling rate.
func TestTriangleFreeStreams(t *testing.T) {
	streams := map[string][]rept.Edge{
		"star":  gen.Star(200),
		"cycle": gen.Cycle(200),
	}
	for name, edges := range streams {
		est, err := rept.New(rept.Config{M: 3, C: 5, Seed: 2, TrackLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		est.AddAll(edges)
		if got := est.Global(); got != 0 {
			t.Errorf("%s: Global = %v, want 0", name, got)
		}
		if locals := est.Locals(); len(locals) != 0 {
			t.Errorf("%s: %d non-zero locals, want 0", name, len(locals))
		}
		est.Close()
	}
}

// TestEmptyAndTinyStreams: zero and sub-triangle streams are fine.
func TestEmptyAndTinyStreams(t *testing.T) {
	est, err := rept.New(rept.Config{M: 2, C: 3, Seed: 1, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if got := est.Global(); got != 0 {
		t.Errorf("empty stream Global = %v, want 0", got)
	}
	est.Add(1, 2)
	est.Add(2, 3)
	if got := est.Global(); got != 0 {
		t.Errorf("two-edge stream Global = %v, want 0", got)
	}
}
