package rept_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"rept"
	"rept/internal/gen"
)

func sameEstimate(a, b rept.Estimate) bool {
	if a.Global != b.Global || a.EtaHat != b.EtaHat {
		return false
	}
	if a.Variance != b.Variance && !(math.IsNaN(a.Variance) && math.IsNaN(b.Variance)) {
		return false
	}
	return reflect.DeepEqual(a.Local, b.Local)
}

// TestEstimatorSnapshotRoundTrip: the public single-caller estimator
// round-trips through WriteSnapshot/Resume with identical estimates.
func TestEstimatorSnapshotRoundTrip(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(250, 5, 0.4, 3), 8)
	cfg := rept.Config{M: 6, C: 20, Seed: 10, TrackLocal: true, TrackEta: true}
	cut := len(edges) * 2 / 3

	full, err := rept.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.AddAll(edges)
	want := full.Result()
	full.Close()

	first, err := rept.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.AddAll(edges[:cut])
	var buf bytes.Buffer
	if err := first.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first.Close()

	resumed, err := rept.Resume(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	resumed.AddAll(edges[cut:])
	if got := resumed.Result(); !sameEstimate(got, want) {
		t.Errorf("resumed estimate %+v, want %+v", got, want)
	}
}

// TestConcurrentSnapshotRoundTripProperty: for random (M, C, TrackLocal,
// TrackEta, Shards) configurations, a Concurrent estimator interrupted by
// snapshot → ResumeConcurrent → continue must match an uninterrupted run
// bit-for-bit. Feeding is single-caller so both instances see the same
// arrival order (estimates are order-dependent through η); the tier-1
// -race run still exercises the full concurrent machinery underneath.
func TestConcurrentSnapshotRoundTripProperty(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(300, 5, 0.4, 7), 4)
	rng := rand.New(rand.NewPCG(7, 11))

	for trial := 0; trial < 12; trial++ {
		cfg := rept.ConcurrentConfig{
			M:          1 + rng.IntN(8),
			C:          1 + rng.IntN(24),
			Shards:     rng.IntN(4), // 0 = auto
			Seed:       int64(rng.Uint64()),
			TrackLocal: rng.IntN(2) == 0,
			TrackEta:   rng.IntN(2) == 0,
		}
		// Random body lengths vary how the stream is cut into segments.
		body := 1 + rng.IntN(200)
		cut := rng.IntN(len(edges) + 1)
		feed := func(est *rept.Concurrent, edges []rept.Edge) {
			for i := 0; i < len(edges); i += body {
				est.AddAll(edges[i:min(i+body, len(edges))])
			}
		}

		full, err := rept.NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(full, edges)
		want := full.Snapshot()
		full.Close()

		first, err := rept.NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(first, edges[:cut])
		var buf bytes.Buffer
		if err := first.WriteSnapshot(&buf); err != nil {
			t.Fatalf("trial %d (%+v cut %d): WriteSnapshot: %v", trial, cfg, cut, err)
		}
		first.Close()

		resumed, err := rept.ResumeConcurrent(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d (%+v cut %d): ResumeConcurrent: %v", trial, cfg, cut, err)
		}
		feed(resumed, edges[cut:])
		if got := resumed.Snapshot(); !sameEstimate(got, want) {
			t.Errorf("trial %d (%+v cut %d): resumed diverged: %+v vs %+v", trial, cfg, cut, got, want)
		}
		if resumed.Processed() != uint64(len(edges)) {
			t.Errorf("trial %d: Processed = %d, want %d", trial, resumed.Processed(), len(edges))
		}
		resumed.Close()
	}
}

// TestConcurrentSnapshotWhileStreaming races WriteSnapshot against
// concurrent producers (data-race probe under the tier-1 -race run) and
// checks every snapshot restores cleanly.
func TestConcurrentSnapshotWhileStreaming(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 3, C: 12, Shards: 2, Seed: 5, TrackLocal: true}
	est, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()

	edges := gen.Shuffle(gen.HolmeKim(250, 4, 0.3, 9), 6)
	var wg sync.WaitGroup
	const producers = 3
	chunk := (len(edges) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := min(p*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		wg.Add(1)
		go func(part []rept.Edge) {
			defer wg.Done()
			// 16-edge bodies: each ships as its own segment, so deliveries
			// interleave with the snapshot barriers.
			for i := 0; i < len(part); i += 16 {
				est.AddAll(part[i:min(i+16, len(part))])
			}
		}(edges[lo:hi])
	}
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := est.WriteSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		r, err := rept.ResumeConcurrent(cfg, &buf)
		if err != nil {
			t.Fatalf("snapshot %d: restore: %v", i, err)
		}
		r.Close()
	}
	wg.Wait()
}

// TestResumeMismatchIsDescriptive: the public wrappers surface
// ErrSnapshotMismatch with field-by-field detail.
func TestResumeMismatchIsDescriptive(t *testing.T) {
	est, err := rept.New(rept.Config{M: 4, C: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	est.Close()

	if _, err := rept.Resume(rept.Config{M: 5, C: 8, Seed: 2}, bytes.NewReader(buf.Bytes())); !errors.Is(err, rept.ErrSnapshotMismatch) {
		t.Errorf("Resume mismatch err = %v, want ErrSnapshotMismatch", err)
	}
	// An engine snapshot cannot boot a Concurrent estimator.
	if _, err := rept.ResumeConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Seed: 2}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ResumeConcurrent accepted a single-engine snapshot")
	}
}
