// Sybil / spam-account screening with local triangle counts — the use
// case from the paper's introduction (suspicious-account detection on
// online social networks, spam webpage detection).
//
// Genuine accounts embed in their friends' communities, so their local
// triangle count τ_v is high relative to their degree. Sybil accounts
// befriend many victims who do not know each other, so τ_v stays near
// zero while degree grows. We build a social graph, attach sybil nodes,
// stream it through REPT with local tracking, and rank nodes by the
// clustering score 2·τ̂_v / (d_v(d_v−1)).
//
//	go run ./examples/sybil
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sort"

	"rept"
	"rept/internal/gen"
)

const (
	honestNodes = 4000
	sybils      = 12
	sybilDegree = 60
)

func main() {
	edges, sybilIDs := buildGraph()
	fmt.Printf("stream: %d edges, %d honest nodes, %d sybils\n",
		len(edges), honestNodes, sybils)

	est, err := rept.New(rept.Config{M: 4, C: 4, Seed: 3, TrackLocal: true})
	if err != nil {
		log.Fatal(err)
	}
	defer est.Close()

	// Track degrees alongside (cheap; one counter per node).
	deg := make(map[rept.NodeID]int)
	for _, e := range edges {
		est.Add(e.U, e.V)
		deg[e.U]++
		deg[e.V]++
	}
	locals := est.Locals()

	// Score = estimated local clustering coefficient. Only high-degree
	// nodes are interesting (low-degree honest nodes can have zero
	// triangles by chance).
	type scored struct {
		v     rept.NodeID
		deg   int
		tauV  float64
		score float64
	}
	var candidates []scored
	for v, d := range deg {
		if d < 30 {
			continue
		}
		t := locals[v]
		candidates = append(candidates, scored{
			v: v, deg: d, tauV: t,
			score: 2 * t / float64(d*(d-1)),
		})
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].score < candidates[j].score })

	isSybil := make(map[rept.NodeID]bool, len(sybilIDs))
	for _, s := range sybilIDs {
		isSybil[s] = true
	}
	fmt.Println("\nmost suspicious high-degree nodes (lowest clustering):")
	fmt.Println("node     degree  τ̂_v     clustering  truth")
	hits := 0
	for i := 0; i < len(candidates) && i < 2*sybils; i++ {
		c := candidates[i]
		truth := "honest"
		if isSybil[c.v] {
			truth = "SYBIL"
			hits++
		}
		fmt.Printf("%-7d  %-6d  %-6.1f  %-10.5f  %s\n", c.v, c.deg, c.tauV, c.score, truth)
	}
	fmt.Printf("\nrecall: %d/%d sybils in the top-%d suspects\n", hits, sybils, 2*sybils)
}

// buildGraph creates a clustered honest community plus sybil nodes whose
// neighbors are random victims (no triangles among them).
func buildGraph() ([]rept.Edge, []rept.NodeID) {
	edges := gen.HolmeKim(honestNodes, 8, 0.6, 11)
	rng := rand.New(rand.NewPCG(5, 5))
	var ids []rept.NodeID
	seen := make(map[uint64]struct{})
	for _, e := range edges {
		seen[e.Key()] = struct{}{}
	}
	for s := 0; s < sybils; s++ {
		sv := rept.NodeID(honestNodes + s)
		ids = append(ids, sv)
		added := 0
		for added < sybilDegree {
			victim := rept.NodeID(rng.IntN(honestNodes))
			e := rept.Edge{U: sv, V: victim}
			if _, dup := seen[e.Key()]; dup {
				continue
			}
			seen[e.Key()] = struct{}{}
			edges = append(edges, e)
			added++
		}
	}
	return gen.Shuffle(edges, 99), ids
}
