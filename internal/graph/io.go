package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// WriteEdgeList writes the stream as a text edge list, one edge per line,
// preserving stream order. The stream package reads it back.
func WriteEdgeList(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("graph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the stream to path, creating or truncating it.
func WriteEdgeListFile(path string, edges []Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteEdgeList(f, edges); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
