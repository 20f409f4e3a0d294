// Command reptcount estimates global and local triangle counts of an edge
// stream (a SNAP-style text edge list) with REPT or one of the baseline
// estimators.
//
// Usage:
//
//	reptcount -in edges.txt -algo rept -m 10 -c 10 [-local -top 10]
//	reptcount -in edges.txt -algo mascot -m 10
//	reptcount -in edges.txt -algo exact
//
// The stream is processed in one pass (baselines with a default budget
// buffer it once to size the budget, unless -edges supplies a hint); for
// REPT, -c logical processors each sample edges with probability 1/m.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rept"
	"rept/internal/graph"
	"rept/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reptcount:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reptcount", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input edge list (required)")
		algo   = fs.String("algo", "rept", "algorithm: rept|mascot|triest|gps|exact")
		m      = fs.Int("m", 10, "sampling denominator; p = 1/m (rept, mascot)")
		c      = fs.Int("c", 10, "logical processors (rept)")
		budget = fs.Int("budget", 0, "edge budget for triest/gps (default |E|/m)")
		seed   = fs.Int64("seed", 1, "random seed")
		local  = fs.Bool("local", false, "track local (per-node) counts")
		top    = fs.Int("top", 10, "print the top-K nodes by local count (with -local)")
		dedup  = fs.Bool("dedup", false, "drop duplicate edges and self-loops on the fly")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}

	start := time.Now()
	switch *algo {
	case "exact":
		edges, err := readAll(*in, *dedup)
		if err != nil {
			return err
		}
		res := rept.ExactCount(edges, rept.ExactOptions{Local: *local, Eta: true})
		ratio := 0.0
		if res.Tau > 0 {
			ratio = float64(res.Eta) / float64(res.Tau)
		}
		fmt.Fprintf(out, "nodes=%d edges=%d\n", res.Nodes, res.Edges)
		fmt.Fprintf(out, "triangles=%d eta=%d eta/tau=%.2f\n", res.Tau, res.Eta, ratio)
		if *local {
			printTopUint(out, res.TauV, *top)
		}
	case "rept":
		est, err := rept.New(rept.Config{M: *m, C: *c, Seed: *seed, TrackLocal: *local})
		if err != nil {
			return err
		}
		defer est.Close()
		if err := drainFile(*in, *dedup, est); err != nil {
			return err
		}
		res := est.Result()
		fmt.Fprintf(out, "edges=%d sampled=%d\n", est.Processed(), est.SampledEdges())
		fmt.Fprintf(out, "triangles≈%.1f\n", res.Global)
		if *local {
			printTopFloat(out, res.Local, *top, "τ_v≈%.1f")
		}
	case "mascot", "triest", "gps":
		// Budget defaults need |E|; buffer the stream once.
		edges, err := readAll(*in, *dedup)
		if err != nil {
			return err
		}
		counter, err := newBaseline(*algo, *m, *budget, len(edges), *seed, *local)
		if err != nil {
			return err
		}
		for _, e := range edges {
			counter.Add(e.U, e.V)
		}
		fmt.Fprintf(out, "edges=%d\n", len(edges))
		fmt.Fprintf(out, "triangles≈%.1f\n", counter.Global())
		if *local {
			if l, ok := counter.(interface {
				Locals() map[rept.NodeID]float64
			}); ok {
				printTopFloat(out, l.Locals(), *top, "τ_v≈%.1f")
			}
		}
	default:
		return fmt.Errorf("unknown -algo %q", *algo)
	}
	fmt.Fprintf(out, "elapsed=%.2fs\n", time.Since(start).Seconds())
	return nil
}

func readAll(path string, dedup bool) ([]graph.Edge, error) {
	src, err := stream.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if dedup {
		return stream.Collect(stream.Dedup(src, true))
	}
	return stream.Collect(src)
}

func drainFile(path string, dedup bool, counter rept.Counter) error {
	src, err := stream.OpenFile(path)
	if err != nil {
		return err
	}
	defer src.Close()
	var s stream.Source = src
	if dedup {
		s = stream.Dedup(src, true)
	}
	return stream.Drain(s, func(e graph.Edge) { counter.Add(e.U, e.V) })
}

func newBaseline(algo string, m, budget, edges int, seed int64, local bool) (rept.Counter, error) {
	k := budget
	if k == 0 {
		k = edges / m
	}
	if k < 2 {
		k = 2
	}
	switch algo {
	case "mascot":
		return rept.NewMascot(1/float64(m), seed, local)
	case "triest":
		return rept.NewTriest(k, seed, local)
	case "gps":
		return rept.NewGPS(k/2+1, seed, local)
	}
	return nil, fmt.Errorf("unknown baseline %q", algo)
}

// printTopFloat prints the k nodes with the largest values in m, largest
// first, each value through the format value.
func printTopFloat(out io.Writer, m map[rept.NodeID]float64, k int, value string) {
	type kv struct {
		v rept.NodeID
		x float64
	}
	all := make([]kv, 0, len(m))
	for v, x := range m {
		all = append(all, kv{v, x})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].x != all[j].x {
			return all[i].x > all[j].x
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(out, "  node %-10d "+value+"\n", all[i].v, all[i].x)
	}
}

// printTopUint is printTopFloat for exact counts, printed as integers.
func printTopUint(out io.Writer, m map[rept.NodeID]uint64, k int) {
	f := make(map[rept.NodeID]float64, len(m))
	for v, x := range m {
		f[v] = float64(x)
	}
	printTopFloat(out, f, k, "τ_v=%.0f")
}
