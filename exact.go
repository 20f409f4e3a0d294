package rept

import (
	"rept/internal/graph"
	"rept/internal/stream"
)

// ExactResult holds exact triangle statistics of a stream, including the
// paper's η statistics that drive the variance of sampling estimators.
type ExactResult struct {
	// Nodes and Edges count the distinct non-loop nodes and edges.
	Nodes, Edges int
	// Tau is the exact global triangle count τ.
	Tau uint64
	// TauV holds exact local counts τ_v (nil unless requested).
	TauV map[NodeID]uint64
	// Eta is the number of unordered pairs of distinct triangles that
	// share an edge which is the last stream edge of neither (paper's η);
	// zero unless requested.
	Eta uint64
	// EtaV restricts Eta to pairs of triangles both containing v (paper's
	// η_v); nil unless requested.
	EtaV map[NodeID]uint64
}

// ExactOptions selects which exact statistics ExactCount computes.
type ExactOptions struct {
	Local    bool // compute TauV
	Eta      bool // compute Eta (order-dependent!)
	EtaLocal bool // compute EtaV
}

// ExactCount computes exact triangle statistics of the stream in arrival
// order, skipping self-loops and duplicate edges. η and η_v depend on the
// stream order, as in the paper.
func ExactCount(edges []Edge, opt ExactOptions) *ExactResult {
	r := graph.CountExact(edges, graph.ExactOptions{
		Local:    opt.Local,
		Eta:      opt.Eta,
		EtaLocal: opt.EtaLocal,
	})
	return &ExactResult{
		Nodes: r.Nodes,
		Edges: r.Edges,
		Tau:   r.Tau,
		TauV:  r.TauV,
		Eta:   r.Eta,
		EtaV:  r.EtaV,
	}
}

// ReadEdgeListFile loads a SNAP-style text edge list ("u v" per line, '#'
// and '%' comments) with node ids that fit in uint32.
func ReadEdgeListFile(path string) ([]Edge, error) {
	src, err := stream.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return stream.Collect(src)
}

// WriteEdgeListFile writes a stream as a text edge list, preserving order.
func WriteEdgeListFile(path string, edges []Edge) error {
	return graph.WriteEdgeListFile(path, edges)
}
