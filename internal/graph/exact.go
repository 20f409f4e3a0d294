package graph

// ExactOptions selects which exact statistics to compute. η and η_v cost
// extra memory (per-edge and per-(edge,node) counters over triangles), so
// they are opt-in.
type ExactOptions struct {
	Local    bool // compute TauV (per-node triangle counts)
	Eta      bool // compute Eta (paper's η)
	EtaLocal bool // compute EtaV (paper's η_v); implies Eta bookkeeping
}

// ExactResult holds exact, stream-order-dependent statistics of a stream.
type ExactResult struct {
	Nodes int // nodes with at least one (non-loop, deduped) edge
	Edges int // distinct non-loop edges

	SelfLoops  int // self-loop arrivals skipped
	Duplicates int // duplicate arrivals skipped

	Tau  uint64            // number of triangles τ
	TauV map[NodeID]uint64 // per-node triangle counts τ_v (nil unless Local)

	// Eta is the number of unordered pairs (σ, σ*) of distinct triangles
	// sharing an edge g such that g is the last stream edge of neither σ
	// nor σ* (paper Table I). Zero unless ExactOptions.Eta.
	Eta uint64
	// EtaV[v] restricts Eta to pairs of triangles that both contain v.
	// Nil unless ExactOptions.EtaLocal.
	EtaV map[NodeID]uint64
}

type etaVKey struct {
	g uint64 // shared-edge key
	v NodeID
}

// CountExact computes exact triangle statistics of the stream in arrival
// order. Self-loops and duplicate edges are skipped (and counted in the
// result) so that downstream consumers see the simple-stream semantics the
// paper assumes.
//
// Each triangle is discovered exactly once, at the arrival of its last
// stream edge (u,v), as a common neighbor w of u and v in the graph built
// so far; the edges (u,w) and (v,w) are then exactly the triangle's two
// non-last edges, which is what the η bookkeeping needs.
func CountExact(stream []Edge, opt ExactOptions) *ExactResult {
	res := &ExactResult{}
	if opt.Local {
		res.TauV = make(map[NodeID]uint64)
	}
	adj := NewAdjacency()

	// x[g] = number of triangles in which edge g is not the last edge.
	var x map[uint64]uint32
	if opt.Eta || opt.EtaLocal {
		x = make(map[uint64]uint32)
	}
	// xv[(g,v)] = number of triangles containing node v in which edge g is
	// not the last edge.
	var xv map[etaVKey]uint32
	if opt.EtaLocal {
		xv = make(map[etaVKey]uint32)
	}

	var common []NodeID
	for _, e := range stream {
		if e.IsSelfLoop() {
			res.SelfLoops++
			continue
		}
		u, v := e.U, e.V
		if adj.Has(u, v) {
			res.Duplicates++
			continue
		}
		common = adj.CommonNeighbors(u, v, common[:0])
		n := uint64(len(common))
		res.Tau += n
		if opt.Local {
			res.TauV[u] += n
			res.TauV[v] += n
			for _, w := range common {
				res.TauV[w]++
			}
		}
		if x != nil {
			for _, w := range common {
				guw, gvw := Key(u, w), Key(v, w)
				x[guw]++
				x[gvw]++
				if xv != nil {
					// The triangle {u,v,w} contains all three nodes, so each
					// non-last edge contributes to xv for all three.
					for _, a := range [3]NodeID{u, v, w} {
						xv[etaVKey{guw, a}]++
						xv[etaVKey{gvw, a}]++
					}
				}
			}
		}
		adj.Add(u, v)
	}
	res.Nodes = adj.Nodes()
	res.Edges = adj.Edges()

	// Distinct triangles share at most one edge (two shared edges would
	// force identical vertex sets), so η is a sum of per-edge pair counts.
	if x != nil {
		for _, c := range x {
			res.Eta += choose2(uint64(c))
		}
	}
	if xv != nil {
		res.EtaV = make(map[NodeID]uint64)
		for k, c := range xv {
			if c > 1 {
				res.EtaV[k.v] += choose2(uint64(c))
			}
		}
	}
	return res
}

func choose2(n uint64) uint64 { return n * (n - 1) / 2 }
