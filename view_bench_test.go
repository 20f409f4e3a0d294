package rept_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rept"
	"rept/internal/gen"
	"rept/internal/graph"
)

// benchViewEstimator builds a Concurrent estimator with a representative
// mid-stream state and producers saturating ingest for the whole
// benchmark — the regime the read path is built for. It returns the
// estimator with views running.
func benchViewEstimator(b *testing.B, producers int) *rept.Concurrent {
	b.Helper()
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 8, C: 32, Shards: 4, Seed: 1, TrackLocal: true, TrackDegrees: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	est.AddAll(gen.Shuffle(gen.HolmeKim(5000, 6, 0.3, 5), 9))
	if _, err := est.StartViews(rept.ViewConfig{Interval: 50 * time.Millisecond, TopK: 100}); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			chunk := gen.Shuffle(gen.HolmeKim(2000, 5, 0.3, seed), seed)
			for {
				select {
				case <-stop:
					return
				default:
					est.AddAll(chunk)
				}
			}
		}(uint64(p + 2))
	}
	b.Cleanup(func() {
		close(stop)
		wg.Wait()
		est.Close()
	})
	return est
}

// BenchmarkReadPathViewUnderIngest measures single-node queries through
// the epoch-view path while ingest is saturated: an atomic pointer load
// plus a probe of the view's flat class-sum tables, never a barrier. Compare against
// BenchmarkReadPathBarrierUnderIngest — the ratio is the point (the
// acceptance bar for this subsystem is ≥100×).
func BenchmarkReadPathViewUnderIngest(b *testing.B) {
	est := benchViewEstimator(b, 2)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += est.Local(rept.NodeID(i % 5000))
	}
	_ = sink
}

// BenchmarkReadPathViewParallel is the same query mix from parallel
// readers — the many-clients regime the HTTP endpoints map onto.
func BenchmarkReadPathViewParallel(b *testing.B) {
	est := benchViewEstimator(b, 2)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		i := 0
		for pb.Next() {
			sink += est.Local(rept.NodeID(i % 5000))
			i++
		}
		_ = sink
	})
}

// BenchmarkReadPathBarrierUnderIngest measures the pre-view read path:
// every single-node query pays a cross-shard barrier and materializes the
// full local map (what Concurrent.Local did before views, still available
// as Snapshot).
func BenchmarkReadPathBarrierUnderIngest(b *testing.B) {
	est := benchViewEstimator(b, 2)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += est.Snapshot().Local[rept.NodeID(i%5000)]
	}
	_ = sink
}

// BenchmarkViewTopK measures serving the precomputed top-100 ranking.
func BenchmarkViewTopK(b *testing.B) {
	est := benchViewEstimator(b, 2)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(est.View().Top(100))
	}
	_ = sink
}

// BenchmarkViewPublish measures materializing one epoch (barrier, merge,
// degree copy, top-K selection) — the cost the publisher pays per
// interval so that readers pay nothing.
func BenchmarkViewPublish(b *testing.B) { benchViewPublish(b, 2) }

// BenchmarkViewPublishIdle is BenchmarkViewPublish on the same state with
// no producers running: every barrier finds empty queues and every engine
// an empty class-sum delta, so it times the barrier, the copy of the
// previous view's tables and the view build rather than draining ingest
// or merging updates. BenchmarkViewPublishEpoch times an epoch that
// carries updates.
func BenchmarkViewPublishIdle(b *testing.B) { benchViewPublish(b, 0) }

func benchViewPublish(b *testing.B, producers int) {
	est := benchViewEstimator(b, producers)
	views := est.Views()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		views.Refresh()
	}
}

// viewEpochStreams are two HolmeKim(200k nodes, k=8, pt=0.5) substreams
// on disjoint node ranges (seeds 1 and 2), the shape of e2ebench's
// read-mix workload. They are built on first use.
var viewEpochStreams = sync.OnceValue(func() [2][]rept.Update {
	second := graph.Inserts(gen.HolmeKim(200_000, 8, 0.5, 2))
	for i := range second {
		second[i].U += 200_000
		second[i].V += 200_000
	}
	return [2][]rept.Update{shardPowerLaw(), second}
})

// BenchmarkViewPublishEpoch times publishing one epoch that carries
// updates, on a state whose class sums outgrow the L2 cache: the
// viewEpochStreams substreams at M=10, C=40 on 2 shards with locals and
// degrees, the first 400k events of each ingested up front. Before each
// timed Refresh, 4000 events of each substream are applied and drained
// with the timer stopped: 8000 events, read-mix's 40k events/s over one
// 200 ms interval. One op is one epoch's barrier, delta merge, degree
// copy and incremental top-K; BenchmarkViewPublishIdle times the same
// work with an empty delta. When the substreams run out, the estimator
// is rebuilt at the preload prefix, untimed, and the epochs repeat.
func BenchmarkViewPublishEpoch(b *testing.B) {
	const preload, perEpoch = 400_000, 4000
	subs := viewEpochStreams()
	var est *rept.Concurrent
	var views *rept.Views
	next := 0
	feed := func(n int) {
		for _, s := range subs {
			est.ApplyAll(s[next : next+n])
		}
		next += n
	}
	build := func() {
		if est != nil {
			est.Close()
			runtime.GC() // release the old state before the new one grows
		}
		var err error
		est, err = rept.NewConcurrent(rept.ConcurrentConfig{
			M: 10, C: 40, Shards: 2, Seed: 1, TrackLocal: true, TrackDegrees: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		next = 0
		feed(preload)
		if views, err = est.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
			b.Fatal(err)
		}
	}
	build()
	b.Cleanup(func() { est.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next+perEpoch > len(subs[0]) {
			build()
		}
		feed(perEpoch)
		est.SampledEdges() // a barrier: the shards have applied every event
		b.StartTimer()
		views.Refresh()
	}
}
