// Package gen generates synthetic graph streams. The REPT paper evaluates
// on eight public social/web graphs that are not redistributable with this
// repository; the dataset registry in internal/exper substitutes synthetic
// analogs produced by the models in this package (see the internal/exper
// package documentation).
//
// All generators are deterministic given their seed, emit simple graphs
// (no self-loops, no duplicate edges) with dense node ids in [0, n), and
// return edges in generation order; use Shuffle for a randomized stream
// order.
package gen

import (
	"math/rand/v2"

	"rept/internal/graph"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Shuffle returns a copy of the stream in a seeded random order.
func Shuffle(edges []graph.Edge, seed uint64) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	copy(out, edges)
	rng := newRNG(seed)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ErdosRenyi samples m distinct edges uniformly among the C(n,2) pairs
// (G(n, m) model). It panics if m exceeds the number of possible edges.
func ErdosRenyi(n, m int, seed uint64) []graph.Edge {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		panic("gen: ErdosRenyi m exceeds C(n,2)")
	}
	rng := newRNG(seed)
	seen := make(map[uint64]struct{}, m)
	out := make([]graph.Edge, 0, m)
	for len(out) < m {
		u := graph.NodeID(rng.IntN(n))
		v := graph.NodeID(rng.IntN(n))
		if u == v {
			continue
		}
		k := graph.Key(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, graph.Edge{U: u, V: v})
	}
	return out
}

// BarabasiAlbert grows an n-node preferential-attachment graph where every
// new node attaches to k existing nodes with probability proportional to
// degree (implemented with the repeated-endpoints trick). Produces skewed
// degree distributions with modest clustering, similar in spirit to
// Wiki-Talk/YouTube-like graphs.
func BarabasiAlbert(n, k int, seed uint64) []graph.Edge {
	return HolmeKim(n, k, 0, seed)
}

// HolmeKim grows a powerlaw-cluster graph (Holme & Kim 2002): like
// Barabási–Albert, but after each preferential attachment step, with
// probability pt the next link is a "triad formation" edge to a random
// neighbor of the previously chosen target, which closes a triangle.
// Larger pt gives higher clustering (more triangles) while preserving the
// heavy-tailed degree distribution — the knob we use to mimic the spread
// of η/τ ratios across the paper's datasets.
func HolmeKim(n, k int, pt float64, seed uint64) []graph.Edge {
	if k < 1 || n < k+1 {
		panic("gen: HolmeKim needs n > k >= 1")
	}
	rng := newRNG(seed)
	out := make([]graph.Edge, 0, n*k)
	// targets holds one entry per edge endpoint, so sampling uniformly from
	// it is sampling proportional to degree.
	targets := make([]graph.NodeID, 0, 2*n*k)
	neighbors := make(map[uint64]struct{}, n*k)

	addEdge := func(u, v graph.NodeID) bool {
		if u == v {
			return false
		}
		k := graph.Key(u, v)
		if _, dup := neighbors[k]; dup {
			return false
		}
		neighbors[k] = struct{}{}
		out = append(out, graph.Edge{U: u, V: v})
		targets = append(targets, u, v)
		return true
	}

	// Seed clique over the first k+1 nodes so that preferential attachment
	// has well-defined degrees from the start.
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			addEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}

	adj := make([][]graph.NodeID, n) // adjacency lists for triad formation
	for _, e := range out {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}

	for u := k + 1; u < n; u++ {
		uu := graph.NodeID(u)
		var last graph.NodeID
		haveLast := false
		for added := 0; added < k; {
			var v graph.NodeID
			if haveLast && rng.Float64() < pt && len(adj[last]) > 0 {
				// Triad formation: link to a random neighbor of last.
				v = adj[last][rng.IntN(len(adj[last]))]
			} else {
				v = targets[rng.IntN(len(targets))]
			}
			if !addEdge(uu, v) {
				// Collision (duplicate or self): fall back to uniform
				// preferential retry; guaranteed to terminate because the
				// graph has more than k candidate targets.
				haveLast = false
				continue
			}
			adj[uu] = append(adj[uu], v)
			adj[v] = append(adj[v], uu)
			last, haveLast = v, true
			added++
		}
	}
	return out
}

// WattsStrogatz builds a small-world ring lattice over n nodes where each
// node links to its k nearest clockwise neighbors, then rewires each edge's
// far endpoint with probability beta. High clustering, near-uniform
// degrees — a web-graph-like analog. k must be >= 1 and n > 2k.
func WattsStrogatz(n, k int, beta float64, seed uint64) []graph.Edge {
	if k < 1 || n <= 2*k {
		panic("gen: WattsStrogatz needs n > 2k, k >= 1")
	}
	rng := newRNG(seed)
	seen := make(map[uint64]struct{}, n*k)
	out := make([]graph.Edge, 0, n*k)
	add := func(u, v graph.NodeID) bool {
		if u == v {
			return false
		}
		key := graph.Key(u, v)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		out = append(out, graph.Edge{U: u, V: v})
		return true
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire: pick a uniform random endpoint instead.
				for tries := 0; tries < 32; tries++ {
					w := graph.NodeID(rng.IntN(n))
					if add(graph.NodeID(u), w) {
						break
					}
				}
			} else {
				add(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return out
}

// CoHubOverlay models pairs of high-degree hubs with a shared audience —
// the structure that drives the enormous η/τ ratios of real social graphs
// (paper Figure 1): for a hub pair (h₁, h₂) with an edge between them and
// F common followers, every follower closes a triangle through the shared
// edge (h₁, h₂), so those F triangles pairwise share it, contributing
// ≈ C(F, 2) to η but only F to τ.
//
// The overlay creates `pairs` hub pairs with ids starting at hubBase
// (callers pass the base graph's node count to keep ids dense-ish) and
// `followers` followers per pair drawn uniformly from [0, baseNodes).
// Returned edges are ordered hub-edge first, then follower wedges, so the
// shared edge is never the last edge of its triangles; shuffle the
// combined stream for a randomized order (≈2/9·F² expected η per pair).
func CoHubOverlay(baseNodes int, pairs, followers int, hubBase graph.NodeID, seed uint64) []graph.Edge {
	if baseNodes < 2 {
		panic("gen: CoHubOverlay needs baseNodes >= 2")
	}
	rng := newRNG(seed)
	out := make([]graph.Edge, 0, pairs*(2*followers+1))
	for p := 0; p < pairs; p++ {
		h1 := hubBase + graph.NodeID(2*p)
		h2 := hubBase + graph.NodeID(2*p+1)
		out = append(out, graph.Edge{U: h1, V: h2})
		seen := make(map[graph.NodeID]struct{}, followers)
		for len(seen) < followers {
			f := graph.NodeID(rng.IntN(baseNodes))
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			out = append(out, graph.Edge{U: h1, V: f}, graph.Edge{U: h2, V: f})
		}
	}
	return out
}

// Complete returns the stream of all C(n,2) edges of K_n in lexicographic
// order. Useful in tests: τ = C(n,3), τ_v = C(n-1,2).
func Complete(n int) []graph.Edge {
	out := make([]graph.Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	return out
}

// Star returns a star with center 0 and n leaves (no triangles).
func Star(n int) []graph.Edge {
	out := make([]graph.Edge, 0, n)
	for v := 1; v <= n; v++ {
		out = append(out, graph.Edge{U: 0, V: graph.NodeID(v)})
	}
	return out
}

// Cycle returns an n-cycle (no triangles for n > 3).
func Cycle(n int) []graph.Edge {
	if n < 3 {
		panic("gen: Cycle needs n >= 3")
	}
	out := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		out = append(out, graph.Edge{U: graph.NodeID(v), V: graph.NodeID((v + 1) % n)})
	}
	return out
}

// DisjointTriangles returns t vertex-disjoint triangles: τ = t, η = 0, and
// every node has τ_v = 1. Ideal for estimator sanity checks because all
// covariance terms vanish.
func DisjointTriangles(t int) []graph.Edge {
	out := make([]graph.Edge, 0, 3*t)
	for i := 0; i < t; i++ {
		a, b, c := graph.NodeID(3*i), graph.NodeID(3*i+1), graph.NodeID(3*i+2)
		out = append(out, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c}, graph.Edge{U: a, V: c})
	}
	return out
}
