package rept

import (
	"rept/internal/graph"
	"rept/internal/stream"
)

// ExactResult holds exact triangle statistics of a stream, including the
// paper's η statistics that drive the variance of sampling estimators.
type ExactResult = graph.ExactResult

// ExactOptions selects which exact statistics ExactCount computes.
type ExactOptions = graph.ExactOptions

// ExactCount computes exact triangle statistics of the stream in arrival
// order, skipping self-loops and duplicate edges. η and η_v depend on the
// stream order, as in the paper.
func ExactCount(edges []Edge, opt ExactOptions) *ExactResult { return graph.CountExact(edges, opt) }

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
