// Command exactcount computes exact triangle statistics of an edge-list
// file: τ, τ_v, and the paper's η statistics that determine sampling
// estimator variance.
//
// Usage:
//
//	exactcount -in edges.txt [-local -top 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rept"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exactcount:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("exactcount", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "input edge list (required)")
		local = fs.Bool("local", false, "compute per-node counts")
		eta   = fs.Bool("eta", true, "compute η (stream-order dependent)")
		top   = fs.Int("top", 10, "print top-K nodes by τ_v (with -local)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	edges, err := rept.ReadEdgeListFile(*in)
	if err != nil {
		return err
	}
	start := time.Now()
	res := rept.ExactCount(edges, rept.ExactOptions{Local: *local, Eta: *eta})
	fmt.Fprintf(out, "nodes=%d edges=%d triangles=%d", res.Nodes, res.Edges, res.Tau)
	if *eta {
		ratio := 0.0
		if res.Tau > 0 {
			ratio = float64(res.Eta) / float64(res.Tau)
		}
		fmt.Fprintf(out, " eta=%d eta/tau=%.2f", res.Eta, ratio)
	}
	fmt.Fprintf(out, " elapsed=%.2fs\n", time.Since(start).Seconds())
	if *local {
		type kv struct {
			v rept.NodeID
			x uint64
		}
		all := make([]kv, 0, len(res.TauV))
		for v, x := range res.TauV {
			all = append(all, kv{v, x})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].x != all[j].x {
				return all[i].x > all[j].x
			}
			return all[i].v < all[j].v
		})
		if *top > len(all) {
			*top = len(all)
		}
		for i := 0; i < *top; i++ {
			fmt.Fprintf(out, "  node %-10d τ_v=%d\n", all[i].v, all[i].x)
		}
	}
	return nil
}
