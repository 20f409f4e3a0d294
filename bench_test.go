// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section IV) at the quick profile, plus micro-benchmarks of
// the estimators' per-edge cost. Run:
//
//	go test -bench=. -benchmem
//
// For full-size reproductions use cmd/reptbench with -profile default or
// -profile full.
package rept_test

import (
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rept"
	"rept/internal/baselines"
	"rept/internal/core"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/mem"
	"rept/internal/shard"
)

// benchProfile is the quick profile with a fixed tiny scale so benchmark
// timings are comparable across runs.
var benchProfile = exper.Quick

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := exper.Run(id, benchProfile, 1, io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates paper Table II (dataset statistics).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig1 regenerates paper Figure 1 (τ vs η, variance terms).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig3 regenerates paper Figure 3 (global NRMSE vs c, p=0.01).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4 regenerates paper Figure 4 (global NRMSE vs c, p=0.1).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates paper Figure 5 (local NRMSE vs c, p=0.01).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates paper Figure 6 (local NRMSE vs c, p=0.1).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates paper Figure 7 (runtime vs 1/p, c=10).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates paper Figure 8 (REPT vs single-threaded
// equal-memory baselines on the Flickr analog).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkVariance regenerates the Theorem 3 validation experiment.
func BenchmarkVariance(b *testing.B) { runExperiment(b, "variance") }

// BenchmarkAblationCombine regenerates the combination-strategy ablation.
func BenchmarkAblationCombine(b *testing.B) { runExperiment(b, "ablation-combine") }

// BenchmarkAblationHash regenerates the hash-quality ablation.
func BenchmarkAblationHash(b *testing.B) { runExperiment(b, "ablation-hash") }

// BenchmarkVariants regenerates the improved-vs-basic baseline comparison.
func BenchmarkVariants(b *testing.B) { runExperiment(b, "variants") }

// BenchmarkLimits regenerates the paper §III-D streaming-vs-static
// comparison (REPT vs wedge sampling).
func BenchmarkLimits(b *testing.B) { runExperiment(b, "limits") }

// BenchmarkCoverage regenerates the confidence-interval coverage
// validation of the plug-in variance.
func BenchmarkCoverage(b *testing.B) { runExperiment(b, "coverage") }

// --- Micro-benchmarks: per-edge processing cost of each estimator. ---

var microStream = gen.Shuffle(gen.HolmeKim(4000, 8, 0.5, 3), 5)

func feedCounter(b *testing.B, mk func(seed int64) rept.Counter) {
	b.Helper()
	b.ReportAllocs()
	edges := microStream
	b.ResetTimer()
	done := 0
	for done < b.N {
		c := mk(int64(done))
		for _, e := range edges {
			c.Add(e.U, e.V)
			done++
			if done >= b.N {
				break
			}
		}
		if cl, ok := c.(interface{ Close() }); ok {
			cl.Close()
		}
	}
}

// BenchmarkREPTPerEdge measures REPT's per-edge cost (m=10, c=10, the
// covariance-free configuration), sequential.
func BenchmarkREPTPerEdge(b *testing.B) {
	feedCounter(b, func(seed int64) rept.Counter {
		est, err := rept.New(rept.Config{M: 10, C: 10, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return est
	})
}

// BenchmarkREPTPerEdgeWAL measures the per-event cost of DURABLE ingest:
// the same m=10, c=10 configuration behind a local-disk write-ahead log
// in per-batch sync mode, fed 512-event request batches (each batch is
// appended, CRC-stamped, and fsynced before the call returns). Compare
// with BenchmarkREPTPerEdge for the per-event durability overhead; the
// gap is dominated by the fsync, so larger request batches amortize it
// down and -wal-sync intervals remove it from the ingest path entirely.
func BenchmarkREPTPerEdgeWAL(b *testing.B) {
	ups := make([]rept.Update, len(microStream))
	for i, e := range microStream {
		ups[i] = rept.Update{U: e.U, V: e.V}
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	done, pass := 0, 0
	for done < b.N {
		pass++
		est, err := rept.ResumeDurable(
			rept.ConcurrentConfig{M: 10, C: 10, Seed: int64(pass)},
			rept.WALOptions{Dir: filepath.Join(root, strconv.Itoa(pass))},
		)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < len(ups) && done < b.N; i += 512 {
			end := i + 512
			if end > len(ups) {
				end = len(ups)
			}
			if rem := b.N - done; end-i > rem {
				end = i + rem
			}
			if err := est.ApplyAllDurable(ups[i:end]); err != nil {
				b.Fatal(err)
			}
			done += end - i
		}
		est.Close()
	}
}

// benchConcurrentPerEdge measures per-event ingest through the
// Concurrent shard fan-out (m=10, c=10, 512-event batches), optionally
// with a telemetry bundle attached — the instrumented/uninstrumented
// pair the CI bench gate holds within 5% of each other.
func benchConcurrentPerEdge(b *testing.B, instrumented bool) {
	ups := make([]rept.Update, len(microStream))
	for i, e := range microStream {
		ups[i] = rept.Update{U: e.U, V: e.V}
	}
	b.ReportAllocs()
	b.ResetTimer()
	done, pass := 0, 0
	for done < b.N {
		pass++
		cfg := rept.ConcurrentConfig{M: 10, C: 10, Seed: int64(pass)}
		if instrumented {
			cfg.Telemetry = rept.NewTelemetry()
		}
		est, err := rept.NewConcurrent(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < len(ups) && done < b.N; i += 512 {
			end := i + 512
			if end > len(ups) {
				end = len(ups)
			}
			if rem := b.N - done; end-i > rem {
				end = i + rem
			}
			est.ApplyAll(ups[i:end])
			done += end - i
		}
		est.Close()
	}
}

// BenchmarkConcurrentPerEdge is the uninstrumented concurrent per-event
// baseline BenchmarkREPTPerEdgeInstrumented is gated against.
func BenchmarkConcurrentPerEdge(b *testing.B) { benchConcurrentPerEdge(b, false) }

// BenchmarkREPTPerEdgeInstrumented is the identical workload with a full
// telemetry bundle attached: stage histograms, per-shard series, and the
// flight recorder all live. CI fails when it exceeds
// BenchmarkConcurrentPerEdge by more than 5% (benchdiff -pair), the
// always-on-instrumentation budget.
func BenchmarkREPTPerEdgeInstrumented(b *testing.B) { benchConcurrentPerEdge(b, true) }

// batchStream is the workload for the steady-state ingest benchmarks: a
// sparse Erdős–Rényi stream (2000 nodes, mean degree 8) whose working
// set stays cache-resident, so the numbers measure the ingest path —
// dispatch, channel hand-off, mask walk — rather than DRAM latency
// on a growing graph. Degree 8 also keeps the presence-mask
// intersection tight: most events visit only their storing processor.
var batchStream = gen.Shuffle(gen.ErdosRenyi(2000, 8000, 7), 5)

// benchSteady drives the batchStream through one warm Concurrent
// estimator in 8192-event spans, each handed to apply: two priming passes
// build the graph and settle every pool and table, then the timed region
// cycles the stream (edge re-arrivals are ordinary stream events — REPT
// pins duplicates — so the measurement is the steady-state per-event cost
// of the ingest path, free of setup-phase growth and GC traffic).
func benchSteady(b *testing.B, cfg rept.ConcurrentConfig, apply func(*rept.Concurrent, []rept.Edge)) {
	const span = 8192
	est, err := rept.NewConcurrent(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer est.Close()
	feed := func(n int) {
		done := 0
		for done < n {
			for i := 0; i < len(batchStream) && done < n; i += span {
				end := min(i+span, len(batchStream), i+n-done)
				apply(est, batchStream[i:end])
				done += end - i
			}
		}
	}
	feed(2 * len(batchStream))
	// The shards apply the priming passes asynchronously; drain them, or
	// their last capacity growth lands in the timed region as B/op.
	est.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	feed(b.N)
}

// benchBatchSteady is benchSteady with every span sent as one
// Concurrent.ApplyBatch body from a reused Batch.
func benchBatchSteady(b *testing.B, cfg rept.ConcurrentConfig) {
	var batch rept.Batch
	benchSteady(b, cfg, func(est *rept.Concurrent, edges []rept.Edge) {
		batch.Reset()
		for _, e := range edges {
			batch.Insert(e.U, e.V)
		}
		est.ApplyBatch(&batch)
	})
}

// BenchmarkBatchIngestPerEvent measures the steady-state per-event cost
// of bulk ingest — whole bodies through Concurrent.ApplyBatch, the path
// an NDJSON request takes through reptserve — on one shard of 64
// processors in a single group (m = c = 64, counting only), where the
// engine's presence-mask walk visits a handful of processors per event.
func BenchmarkBatchIngestPerEvent(b *testing.B) {
	benchBatchSteady(b, rept.ConcurrentConfig{M: 64, C: 64, Shards: 1, Seed: 1})
}

// BenchmarkAddPerEvent is the event-at-a-time twin of
// BenchmarkBatchIngestPerEvent: the identical stream, configuration, and
// steady-state harness, fed one Concurrent.Add per edge, so every event
// pays the ingest mutex and the shared-buffer append. CI holds it to at
// most 1.5× the batch path (benchdiff -pair @1.5).
func BenchmarkAddPerEvent(b *testing.B) {
	benchSteady(b, rept.ConcurrentConfig{M: 64, C: 64, Shards: 1, Seed: 1}, func(est *rept.Concurrent, edges []rept.Edge) {
		for _, e := range edges {
			est.Add(e.U, e.V)
		}
	})
}

// benchShardIngest is the steady-state harness for the accounting-cost
// pair below, one level under Concurrent: a shard coordinator fed the
// batchStream through ApplyBatch in 8192-event bodies, with
// the byte ledger attached or absent. Concurrent always creates a
// ledger, so the unaccounted baseline only exists at this level — which
// is also where every ledger charge site lives.
func benchShardIngest(b *testing.B, ac *mem.Accountant) {
	const span = 8192
	s, err := shard.New(shard.Config{M: 64, C: 64, Shards: 1, Seed: 1, Mem: ac})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ups := make([]graph.Update, len(batchStream))
	for i, e := range batchStream {
		ups[i] = graph.Update{U: e.U, V: e.V}
	}
	feed := func(n int) {
		done := 0
		for done < n {
			for i := 0; i < len(ups) && done < n; i += span {
				end := i + span
				if end > len(ups) {
					end = len(ups)
				}
				if rem := n - done; end-i > rem {
					end = i + rem
				}
				s.ApplyBatch(ups[i:end])
				done += end - i
			}
		}
	}
	feed(2 * len(ups))
	s.Snapshot() // drain the priming passes, as in benchSteady
	b.ReportAllocs()
	b.ResetTimer()
	feed(b.N)
}

// BenchmarkIngestAccountedPerEvent is the batch ingest path with the
// memory ledger attached — the configuration every Concurrent estimator
// runs. Its pair twin below is the identical workload with no ledger;
// CI holds the ratio to 1.02 (benchdiff -pair @1.02), the accounting
// budget: charges land only at capacity transitions, so a warm steady
// state must be ledger-silent.
func BenchmarkIngestAccountedPerEvent(b *testing.B) {
	benchShardIngest(b, mem.New())
}

// BenchmarkIngestUnaccountedPerEvent is the unaccounted baseline of the
// accounting-cost pair: the same coordinator, stream, and harness with a
// nil ledger, so every charge site compiles to the nil-receiver no-op.
func BenchmarkIngestUnaccountedPerEvent(b *testing.B) {
	benchShardIngest(b, nil)
}

// benchScalingShards is the shard-scaling curve of the bench artifact:
// the same steady-state batch workload with a fixed processor
// budget (m=8, c=64, so 8 groups) spread across k engine shards. On a
// 2-core runner the cost per event halves from one shard to two, as two
// engines apply in parallel, and rises again at four and eight (717,
// 387, 465 and 473 ns on a 2-core Xeon VM): shards beyond the core count
// add a goroutine and a hand-off per segment but no core.
func benchScalingShards(b *testing.B, shards int) {
	benchBatchSteady(b, rept.ConcurrentConfig{M: 8, C: 64, Shards: shards, Seed: 1})
}

func BenchmarkScalingShards1(b *testing.B) { benchScalingShards(b, 1) }
func BenchmarkScalingShards2(b *testing.B) { benchScalingShards(b, 2) }
func BenchmarkScalingShards4(b *testing.B) { benchScalingShards(b, 4) }
func BenchmarkScalingShards8(b *testing.B) { benchScalingShards(b, 8) }

// shardPowerLaw is the insert stream of one ingest-powerlaw substream,
// HolmeKim(200k nodes, k=8, pt=0.5, seed 1): about 1.6M events. It is
// built on first use, so tests and other benchmarks do not pay for it.
var shardPowerLaw = sync.OnceValue(func() []graph.Update {
	return graph.Inserts(gen.HolmeKim(200_000, 8, 0.5, 1))
})

// BenchmarkEngineShardPowerLaw measures one core.Engine at the shape of
// one e2ebench ingest-powerlaw shard engine: M=10, 20 processors,
// TrackLocal. One op is a fresh engine fed the whole shardPowerLaw
// stream, so the sampled graph outgrows the last-level cache the way it
// does end to end, where the cache-resident per-event benchmarks above
// cannot show it. The stream goes in through ApplyAll, so the engine
// walks it in staged groups the way a shard engine walks each batch, and
// this benchmark and e2ebench are where the misses staging overlaps
// show. Compare ns/event.
func BenchmarkEngineShardPowerLaw(b *testing.B) {
	ups := shardPowerLaw()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.NewEngine(core.Config{M: 10, C: 20, Seed: 1, TrackLocal: true})
		if err != nil {
			b.Fatal(err)
		}
		e.ApplyAll(ups)
		e.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ups)), "ns/event")
}

// BenchmarkFullyDynamicChurnPerEvent measures the per-event cost of the
// fully-dynamic mode on a 35%-deletion churn stream (m=10, c=10) — the
// deletion-stream datapoint tracked in the CI bench artifact next to the
// insert-only BenchmarkREPTPerEdge.
func BenchmarkFullyDynamicChurnPerEvent(b *testing.B) {
	base := gen.Shuffle(gen.HolmeKim(2000, 8, 0.3, 42), 3)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: 11})
	newEst := func() *rept.Estimator {
		est, err := rept.New(rept.Config{M: 10, C: 10, Seed: 1, FullyDynamic: true})
		if err != nil {
			b.Fatal(err)
		}
		return est
	}
	est := newEst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(ups) == 0 && i > 0 {
			// Start the schedule over on a fresh estimator outside the
			// timed region, so every measured event is part of a
			// well-formed churn stream.
			b.StopTimer()
			est.Close()
			est = newEst()
			b.StartTimer()
		}
		est.Apply(ups[i%len(ups)])
	}
	b.StopTimer()
	// Keep the estimator honest (and the loop un-eliminated).
	if g := est.Global(); g < -1e12 {
		b.Fatal(g)
	}
	est.Close()
}

// BenchmarkFullyDynamicDeleteOnly isolates the deletion path: a fully
// built graph torn down edge by edge.
func BenchmarkFullyDynamicDeleteOnly(b *testing.B) {
	base := gen.Shuffle(gen.HolmeKim(2000, 8, 0.3, 42), 3)
	est, err := rept.New(rept.Config{M: 10, C: 10, Seed: 1, FullyDynamic: true})
	if err != nil {
		b.Fatal(err)
	}
	defer est.Close()
	est.AddAll(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(base) == 0 && i > 0 {
			// Rebuild outside the timed region so deletes always target
			// live edges without billing the re-insertions.
			b.StopTimer()
			est.AddAll(base)
			b.StartTimer()
		}
		e := base[i%len(base)]
		est.Delete(e.U, e.V)
	}
}

// BenchmarkMascotPerEdge measures MASCOT's per-edge cost at p = 0.1.
func BenchmarkMascotPerEdge(b *testing.B) {
	feedCounter(b, func(seed int64) rept.Counter {
		m, err := rept.NewMascot(0.1, seed, false)
		if err != nil {
			b.Fatal(err)
		}
		return m
	})
}

// BenchmarkTriestPerEdge measures TRIÈST-IMPR's per-edge cost at budget
// |E|/10.
func BenchmarkTriestPerEdge(b *testing.B) {
	k := len(microStream) / 10
	feedCounter(b, func(seed int64) rept.Counter {
		tr, err := rept.NewTriest(k, seed, false)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	})
}

// BenchmarkGPSPerEdge measures GPS's per-edge cost at budget |E|/20.
func BenchmarkGPSPerEdge(b *testing.B) {
	k := len(microStream) / 20
	feedCounter(b, func(seed int64) rept.Counter {
		g, err := rept.NewGPS(k, seed, false)
		if err != nil {
			b.Fatal(err)
		}
		return g
	})
}

// BenchmarkSimPerEdge measures the Monte-Carlo sim engine's per-edge cost
// for the same configuration as BenchmarkREPTPerEdge.
func BenchmarkSimPerEdge(b *testing.B) {
	b.ReportAllocs()
	edges := microStream
	b.ResetTimer()
	done := 0
	for done < b.N {
		sim, err := core.NewSim(core.Config{M: 10, C: 10, Seed: int64(done), TrackEta: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			sim.Add(e.U, e.V)
			done++
			if done >= b.N {
				break
			}
		}
	}
}

// BenchmarkExactCount measures the exact counter (with η) used for ground
// truth.
func BenchmarkExactCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = graph.CountExact(microStream, graph.ExactOptions{Local: true, Eta: true})
	}
	b.ReportMetric(float64(len(microStream)), "edges/op")
}

// BenchmarkParallelBaselineBroadcast measures the c-instance broadcast
// wrapper (c = 10 MASCOT instances over 2 workers).
func BenchmarkParallelBaselineBroadcast(b *testing.B) {
	b.ReportAllocs()
	edges := microStream
	b.ResetTimer()
	done := 0
	for done < b.N {
		par, err := baselines.NewParallelFrom(10, int64(done), 2, func(_ int, s int64) (baselines.Estimator, error) {
			return baselines.NewMascot(0.1, s, false)
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			par.Add(e.U, e.V)
			done++
			if done >= b.N {
				break
			}
		}
		par.Close()
	}
}
