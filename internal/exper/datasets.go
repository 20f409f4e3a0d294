// Package exper is the experiment harness that regenerates every table
// and figure of the REPT paper's evaluation (Section IV) on synthetic
// analogs of its datasets, plus validation and ablation experiments.
// ExperimentIDs indexes the experiments; cmd/reptbench runs them.
//
// Dataset substitution. The paper's eight graphs are not
// redistributable, so the registry (Names, Load) stands in deterministic
// generator analogs from internal/gen, one per paper dataset (PaperRef).
// They match the paper datasets' η/τ spread — the ratio that decides how
// much the covariance term matters — not their absolute sizes, so η/τ
// must span a wide range across the registry.
package exper

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"rept/internal/gen"
	"rept/internal/graph"
)

// DatasetSpec describes one synthetic analog of a paper dataset. Generate
// must be deterministic and accept a scale factor multiplying the node
// count (edge counts scale along).
type DatasetSpec struct {
	Name     string
	PaperRef string // the paper dataset this stands in for
	Desc     string
	Generate func(scale float64) []graph.Edge
}

// hk builds a Holme–Kim generator spec closure.
func hk(n, k int, pt float64, seed uint64) func(float64) []graph.Edge {
	return func(scale float64) []graph.Edge {
		ns := scaled(n, scale, k+2)
		return gen.Shuffle(gen.HolmeKim(ns, k, pt, seed), seed^0x5bf0)
	}
}

// hkHubs composes a Holme–Kim background with a co-hub overlay (hub pairs
// with shared audiences). The overlay is what pushes η/τ into the
// hundreds, the regime where paper Figure 1's covariance term dominates;
// see gen.CoHubOverlay.
func hkHubs(n, k int, pt float64, pairs, followers int, seed uint64) func(float64) []graph.Edge {
	return func(scale float64) []graph.Edge {
		ns := scaled(n, scale, k+2)
		fs := scaled(followers, scale, 8)
		if fs > ns/2 {
			fs = ns / 2
		}
		base := gen.HolmeKim(ns, k, pt, seed)
		hubs := gen.CoHubOverlay(ns, pairs, fs, graph.NodeID(ns), seed^0xc0ffee)
		return gen.Shuffle(append(base, hubs...), seed^0x5bf0)
	}
}

func scaled(n int, scale float64, floor int) int {
	ns := int(math.Round(float64(n) * scale))
	if ns < floor {
		ns = floor
	}
	return ns
}

// Registry lists the eight synthetic analogs of paper Table II, ordered as
// in the paper. Parameters were chosen so that the η/τ spread spans orders
// of magnitude (paper Figure 1): clustered heavy-tailed graphs
// (sim-twitter, sim-flickr) have large η/τ; sparse low-clustering graphs
// (sim-youtube, sim-wikitalk) have small η/τ.
var Registry = []DatasetSpec{
	{
		Name:     "sim-twitter",
		PaperRef: "Twitter",
		Desc:     "large clustered heavy-tail + celebrity co-hubs (Holme–Kim n=20000 k=10 pt=0.55; 15 hub pairs × 6000 followers)",
		Generate: hkHubs(20000, 10, 0.55, 15, 6000, 101),
	},
	{
		Name:     "sim-orkut",
		PaperRef: "com-Orkut",
		Desc:     "clustered heavy-tail + co-hubs (Holme–Kim n=15000 k=9 pt=0.35; 8 hub pairs × 1200 followers)",
		Generate: hkHubs(15000, 9, 0.35, 8, 1200, 102),
	},
	{
		Name:     "sim-livejournal",
		PaperRef: "LiveJournal",
		Desc:     "clustered heavy-tail + co-hubs (Holme–Kim n=12000 k=7 pt=0.45; 5 hub pairs × 800 followers)",
		Generate: hkHubs(12000, 7, 0.45, 5, 800, 103),
	},
	{
		Name:     "sim-pokec",
		PaperRef: "Pokec",
		Desc:     "mildly clustered heavy-tail + co-hubs (Holme–Kim n=10000 k=8 pt=0.25; 3 hub pairs × 500 followers)",
		Generate: hkHubs(10000, 8, 0.25, 3, 500, 104),
	},
	{
		Name:     "sim-flickr",
		PaperRef: "Flickr",
		Desc:     "small dense, extremely clustered (Holme–Kim n=3000 k=20 pt=0.7)",
		Generate: hk(3000, 20, 0.7, 105),
	},
	{
		Name:     "sim-wikitalk",
		PaperRef: "Wiki-Talk",
		Desc:     "skewed, low clustering, few huge co-commenter hubs (Barabási–Albert n=12000 k=3 + 5 hub pairs × 3000 followers)",
		Generate: func(scale float64) []graph.Edge {
			n := scaled(12000, scale, 6)
			fs := scaled(3000, scale, 8)
			if fs > n/2 {
				fs = n / 2
			}
			base := gen.BarabasiAlbert(n, 3, 106)
			hubs := gen.CoHubOverlay(n, 5, fs, graph.NodeID(n), 0x33cc)
			return gen.Shuffle(append(base, hubs...), 0x77aa)
		},
	},
	{
		Name:     "sim-webgoogle",
		PaperRef: "Web-Google",
		Desc:     "high clustering, near-uniform degrees (Watts–Strogatz n=12000 k=6 beta=0.08)",
		Generate: func(scale float64) []graph.Edge {
			n := scaled(12000, scale, 20)
			return gen.Shuffle(gen.WattsStrogatz(n, 6, 0.08, 107), 0x88bb)
		},
	},
	{
		Name:     "sim-youtube",
		PaperRef: "YouTube",
		Desc:     "sparse, low clustering (Holme–Kim n=10000 k=3 pt=0.1)",
		Generate: hk(10000, 3, 0.1, 108),
	},
}

// Dataset is a generated stream together with its exact statistics.
type Dataset struct {
	Spec  DatasetSpec
	Scale float64
	Edges []graph.Edge
	Exact *graph.ExactResult // Local + Eta always computed
}

// Tau returns the exact global triangle count as a float.
func (d *Dataset) Tau() float64 { return float64(d.Exact.Tau) }

// Eta returns the exact η as a float.
func (d *Dataset) Eta() float64 { return float64(d.Exact.Eta) }

// EnsureEtaV computes the exact per-node η_v statistics on first use (an
// extra exact pass with heavier transient memory, needed only by the
// local-accuracy figures' closed-form columns).
func (d *Dataset) EnsureEtaV() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d.Exact.EtaV != nil {
		return
	}
	d.Exact = graph.CountExact(d.Edges, graph.ExactOptions{Local: true, Eta: true, EtaLocal: true})
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// Load generates (or returns the cached) dataset with the given scale.
// Exact statistics include local counts and η.
func Load(name string, scale float64) (*Dataset, error) {
	spec, ok := findSpec(name)
	if !ok {
		return nil, fmt.Errorf("exper: unknown dataset %q (have %v)", name, Names())
	}
	key := fmt.Sprintf("%s@%.4f", name, scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, hit := cache[key]; hit {
		return d, nil
	}
	edges := spec.Generate(scale)
	exact := graph.CountExact(edges, graph.ExactOptions{Local: true, Eta: true})
	d := &Dataset{Spec: spec, Scale: scale, Edges: edges, Exact: exact}
	cache[key] = d
	return d, nil
}

func findSpec(name string) (DatasetSpec, bool) {
	for _, s := range Registry {
		if s.Name == name {
			return s, true
		}
	}
	return DatasetSpec{}, false
}

// Names returns the registry dataset names in paper order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, s := range Registry {
		out[i] = s.Name
	}
	return out
}

// sortedNodes returns the nodes with τ_v > 0 in ascending order (used for
// deterministic local-error iteration).
func sortedNodes(exact *graph.ExactResult) []graph.NodeID {
	nodes := make([]graph.NodeID, 0, len(exact.TauV))
	for v, tv := range exact.TauV {
		if tv > 0 {
			nodes = append(nodes, v)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}
