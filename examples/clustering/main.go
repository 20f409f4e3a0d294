// Global clustering coefficient from a stream — a flagship application of
// triangle counting (paper Section I cites community detection and topic
// mining, both built on clustering structure).
//
// The global clustering coefficient is κ = 3τ/W, where W = Σ_v C(d_v, 2)
// is the wedge count. Degrees (and hence W) are cheap to track exactly in
// one pass; τ comes from REPT. The example streams graphs with known
// clustering levels and recovers their coefficients, with error bars from
// the estimator's plug-in variance.
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"
	"math"

	"rept"
	"rept/internal/gen"
)

func main() {
	fmt.Println("graph                         κ(exact)  κ(REPT)  ±95% CI")
	cases := []struct {
		name  string
		edges []rept.Edge
	}{
		{"Watts-Strogatz beta=0.05", gen.Shuffle(gen.WattsStrogatz(6000, 6, 0.05, 1), 2)},
		{"Holme-Kim pt=0.6", gen.Shuffle(gen.HolmeKim(6000, 6, 0.6, 3), 4)},
		{"Holme-Kim pt=0.1", gen.Shuffle(gen.HolmeKim(6000, 6, 0.1, 5), 6)},
		{"Erdos-Renyi (near zero)", gen.ErdosRenyi(6000, 36000, 7)},
	}
	for _, tc := range cases {
		kExact, kEst, ci := clustering(tc.edges)
		fmt.Printf("%-28s  %.4f    %.4f   ±%.4f\n", tc.name, kExact, kEst, ci)
	}
}

// clustering streams the edges once, tracking degrees exactly and τ via
// REPT with η̂ bookkeeping for the confidence interval.
func clustering(edges []rept.Edge) (exact, estimated, ci95 float64) {
	est, err := rept.New(rept.Config{M: 8, C: 8, Seed: 11, TrackEta: true})
	if err != nil {
		log.Fatal(err)
	}
	defer est.Close()

	deg := make(map[rept.NodeID]int)
	for _, e := range edges {
		est.Add(e.U, e.V)
		deg[e.U]++
		deg[e.V]++
	}
	wedges := 0.0
	for _, d := range deg {
		wedges += float64(d) * float64(d-1) / 2
	}
	res := est.Result()
	estimated = 3 * res.Global / wedges
	// κ's CI scales τ̂'s by 3/W.
	ci95 = 1.96 * 3 * res.StdErr() / wedges

	ex := rept.ExactCount(edges, rept.ExactOptions{})
	exact = 3 * float64(ex.Tau) / wedges
	if math.IsNaN(estimated) {
		estimated = 0
	}
	return exact, estimated, ci95
}
