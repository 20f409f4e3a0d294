package graph

// Summary holds cheap structural statistics of a stream, used by the
// Table II reproduction and dataset reports.
type Summary struct {
	Nodes     int
	Edges     int // distinct non-loop edges
	MaxDegree int
	AvgDegree float64
}

// Summarize computes a Summary in one pass (deduping edges).
func Summarize(stream []Edge) Summary {
	adj := NewAdjacency()
	for _, e := range stream {
		if !e.IsSelfLoop() {
			adj.Add(e.U, e.V)
		}
	}
	s := Summary{Nodes: adj.Nodes(), Edges: adj.Edges()}
	adj.idx.Each(func(_ NodeID, si int32) {
		if d := adj.sets.Deg(si); d > s.MaxDegree {
			s.MaxDegree = d
		}
	})
	if s.Nodes > 0 {
		s.AvgDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

// MaxNodeID returns the largest node id appearing in the stream, or 0 for
// an empty stream. Generators emit dense ids, so MaxNodeID+1 is the array
// size needed for per-node accumulators.
func MaxNodeID(stream []Edge) NodeID {
	var mx NodeID
	for _, e := range stream {
		if e.U > mx {
			mx = e.U
		}
		if e.V > mx {
			mx = e.V
		}
	}
	return mx
}
