package main

import (
	"fmt"
	"math"
	"sync"

	"rept"
	"rept/internal/exper"
	"rept/internal/graph"
)

// bandSigmas is the half-width of the Theorem 3 band in standard
// deviations: wide enough that an unbiased estimator leaves it about once
// in a million runs.
const bandSigmas = 5

// check is one correctness gate of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// checkAnswers gates the server's final fresh estimate. acked[i] events of
// substream i were acknowledged; the server must have processed exactly
// the acknowledged accepted count, its global estimate must be
// bit-identical to an in-process rept.Concurrent with the same config fed
// the same substream prefixes, and it must lie within the Theorem 3 band of
// the exact count.
func checkAnswers(w *workload, subs [2][]graph.Update, acked [2]int, global float64, processed, accepted uint64) ([]check, error) {
	out := []check{{
		Name:   "processed",
		OK:     processed == accepted,
		Detail: fmt.Sprintf("server processed %d events, acknowledged accepted %d", processed, accepted),
	}}

	ref, err := rept.NewConcurrent(w.cfg)
	if err != nil {
		return nil, err
	}
	var b rept.Batch
	for i := range subs {
		for _, ups := range chunk(subs[i][:acked[i]], 4096) {
			b.Reset()
			for _, up := range ups {
				b.Push(up)
			}
			ref.ApplyBatch(&b)
		}
	}
	want := ref.Snapshot().Global
	ref.Close()
	out = append(out, check{
		Name:   "reference",
		OK:     math.Float64bits(global) == math.Float64bits(want),
		Detail: fmt.Sprintf("server %v, in-process rept.Concurrent %v", global, want),
	})

	// Theorem 3: Var = VarREPT(m, c, τ, η) on insert-only streams, and
	// VarREPT(m, c, A, B/2) with the signed second moments on churn. The
	// substreams share no node, so τ, η, A and B add across them.
	var mu sync.Mutex
	var wg sync.WaitGroup
	var tau, x, y float64
	for i := range subs {
		wg.Add(1)
		go func(ups []graph.Update) {
			defer wg.Done()
			var t, a, b float64
			if w.churn {
				ex := exper.DynCountExact(ups, false)
				t, a, b = float64(ex.Tau), ex.A, ex.B/2
			} else {
				edges := make([]graph.Edge, len(ups))
				for j, up := range ups {
					edges[j] = up.Edge()
				}
				ex := graph.CountExact(edges, graph.ExactOptions{Eta: true})
				t, a, b = float64(ex.Tau), float64(ex.Tau), float64(ex.Eta)
			}
			mu.Lock()
			tau, x, y = tau+t, x+a, y+b
			mu.Unlock()
		}(subs[i][:acked[i]])
	}
	wg.Wait()
	sigma := math.Sqrt(rept.TheoreticalVariance(w.cfg.M, w.cfg.C, x, y))
	dev := math.Abs(global - tau)
	out = append(out, check{
		Name:   "theorem3",
		OK:     dev <= bandSigmas*sigma,
		Detail: fmt.Sprintf("estimate %.1f, exact %.0f, off by %.2f sigma (band %d sigma)", global, tau, ratio(dev, sigma), bandSigmas),
	})
	return out, nil
}
