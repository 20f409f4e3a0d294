// Quickstart: estimate global and local triangle counts of a streamed
// graph with REPT and compare against the exact answer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"rept"
	"rept/internal/gen"
)

func main() {
	// A synthetic social-network-like stream: 5000 nodes, ~40k edges,
	// heavy-tailed degrees, plenty of triangles.
	edges := gen.Shuffle(gen.HolmeKim(5000, 8, 0.5, 42), 7)
	fmt.Printf("stream: %d edges\n", len(edges))

	// REPT with sampling probability p = 1/m = 1/10 on c = 10 logical
	// processors. Each processor stores ~|E|/10 edges, and with c = m the
	// covariance between sampled triangles is fully eliminated
	// (Var(τ̂) = τ(m−1), paper Theorem 3).
	est, err := rept.New(rept.Config{
		M:          10,
		C:          10,
		Seed:       1,
		TrackLocal: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer est.Close()

	for _, e := range edges {
		est.Add(e.U, e.V)
	}
	res := est.Result()

	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true, Eta: true})
	fmt.Printf("exact triangles:     %d\n", exact.Tau)
	fmt.Printf("REPT estimate:       %.0f  (%.2f%% error)\n",
		res.Global, 100*abs(res.Global-float64(exact.Tau))/float64(exact.Tau))
	fmt.Printf("memory: %d sampled edges across all processors (stream has %d)\n",
		est.SampledEdges(), len(edges))

	// Predicted error from the closed form, for sizing m and c up front.
	variance := rept.TheoreticalVariance(10, 10, float64(exact.Tau), float64(exact.Eta))
	fmt.Printf("theoretical NRMSE:   %.4f\n", rept.TheoreticalNRMSE(variance, float64(exact.Tau)))

	// Local counts: top-5 nodes by estimated triangle membership.
	type kv struct {
		v rept.NodeID
		x float64
	}
	var top []kv
	for v, x := range res.Local {
		top = append(top, kv{v, x})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].x > top[j].x })
	fmt.Println("top nodes by estimated local triangle count:")
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  node %-6d τ̂_v=%-8.0f exact=%d\n",
			top[i].v, top[i].x, exact.TauV[top[i].v])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
