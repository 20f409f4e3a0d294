package main

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"

	"rept"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
)

// workload is one traffic mix. The server flags are part of it; cfg is the
// same estimator configuration in-process (reptserve's -seed defaults to
// 1, and -local also tracks degrees), which the correctness reference and
// the traced replay are built from.
type workload struct {
	name    string
	flags   []string
	cfg     rept.ConcurrentConfig
	durable bool // boots with a fresh -wal-dir and posts through the WAL

	// nodes is the HolmeKim(k=8, pt=0.5) node count of each of the two
	// substreams; churn turns each into a DynStream Reinsert schedule.
	nodes int
	churn bool
	// body is the events per POST /edges body in the timed window.
	body int

	// preload events of each substream are posted at full speed before
	// the window, so it starts on a graph of the size the workload needs.
	preload int

	// The window is an open loop: writers connections (1 or 2) post
	// eventRate events/s in all, and queryRate queries/s cycle through the
	// first queryKinds kinds of queryMix.
	writers              int
	eventRate, queryRate float64
	queryKinds           int
}

// preloadBody is the events per body of the untimed preload.
const preloadBody = 1024

var localCfg = rept.ConcurrentConfig{M: 10, C: 40, Shards: 2, Seed: 1, TrackLocal: true, TrackDegrees: true}

// workloads are the benchmark's traffic mixes. Every window is an open
// loop at fixed rates well below what a 2-core machine sustains: closed
// loops that saturate the machine measured its neighbours' load as much as
// the server (their throughput moved 20% between runs), and durable-churn
// keeps room for fsyncs that slow down sixfold on a shared disk. Each substream has 200k nodes (1.6M edges); preload plus
// window carry every substream past 100k nodes, so the sampled graphs
// outgrow the last-level cache.
var workloads = map[string]*workload{
	// The engine's mask walk, intersections and local counters plus the
	// degree tracker do nearly all the work; the WAL does none.
	"ingest-powerlaw": {
		flags: []string{"-m", "10", "-c", "40", "-shards", "2", "-local"},
		cfg:   localCfg,
		nodes: 200_000, body: 1024, preload: 400_000,
		writers: 2, eventRate: 75_000, queryRate: 80, queryKinds: 1,
	},
	// Every body waits for an fsync, compaction runs mid-stream, deletes
	// take the all-processor path and small bodies expose the per-request
	// HTTP and ticket cost; views and degrees cost almost nothing.
	"durable-churn": {
		flags:   []string{"-m", "10", "-c", "10", "-dynamic", "-wal-sync", "batch"},
		cfg:     rept.ConcurrentConfig{M: 10, C: 10, Seed: 1, FullyDynamic: true},
		durable: true,
		nodes:   200_000, churn: true, body: 256, preload: 400_000,
		writers: 2, eventRate: 100_000, queryRate: 80, queryKinds: 1,
	},
	// Writes beside reads: a change that speeds ingest by making publishes
	// heavier or staler shows here, and so does one that speeds queries at
	// ingest's expense.
	"read-mix": {
		flags: []string{"-m", "10", "-c", "40", "-shards", "2", "-local"},
		cfg:   localCfg,
		nodes: 200_000, body: 512, preload: 800_000,
		writers: 1, eventRate: 40_000, queryRate: 400, queryKinds: 5,
	},
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// streams builds the workload's two substreams from the seed. Each is its
// own HolmeKim graph on a disjoint node range, so however the two
// connections interleave, no estimate can change.
func (w *workload) streams(seed int64) [2][]graph.Update {
	var out [2][]graph.Update
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := uint64(seed)*2 + uint64(i)
			edges := gen.HolmeKim(w.nodes, 8, 0.5, s)
			off := graph.NodeID(i * w.nodes)
			for j := range edges {
				edges[j].U += off
				edges[j].V += off
			}
			if w.churn {
				out[i] = exper.DynStream(edges, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: s})
			} else {
				out[i] = graph.Inserts(edges)
			}
		}()
	}
	wg.Wait()
	return out
}

// chunk splits ups into consecutive bodies of at most n events.
func chunk(ups []graph.Update, n int) [][]graph.Update {
	out := make([][]graph.Update, 0, (len(ups)+n-1)/n)
	for len(ups) > 0 {
		k := min(n, len(ups))
		out = append(out, ups[:k])
		ups = ups[k:]
	}
	return out
}

// interleave alternates the bodies of the two connections.
func interleave(a, b [][]graph.Update) [][]graph.Update {
	out := make([][]graph.Update, 0, len(a)+len(b))
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// appendBody encodes ups as reptserve's NDJSON ingest body.
func appendBody(dst []byte, ups []graph.Update) []byte {
	for _, up := range ups {
		dst = append(dst, `{"u":`...)
		dst = strconv.AppendUint(dst, uint64(up.U), 10)
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendUint(dst, uint64(up.V), 10)
		if up.Del {
			dst = append(dst, `,"op":"del"`...)
		}
		dst = append(dst, "}\n"...)
	}
	return dst
}

// queryHubs is how many of a substream's first nodes count as hubs: a
// HolmeKim graph grows by preferential attachment, so its oldest nodes
// carry the highest degrees.
const queryHubs = 64

// queryMix cycles through the first kinds of five query kinds: /estimate,
// /local, /topk, /cc and a 64-node /query. Node ids are half hubs and half
// uniform picks among the preloaded nodes of a random substream.
type queryMix struct {
	rng   *rand.Rand
	kinds int
	nodes int // node-id span of one substream
	known int // nodes of each substream the preload covered
	j     int
	body  []byte
}

func (q *queryMix) node() uint64 {
	v := q.rng.IntN(q.known)
	if q.rng.IntN(2) == 0 {
		v = q.rng.IntN(queryHubs)
	}
	return uint64(q.rng.IntN(2)*q.nodes + v)
}

func (q *queryMix) next() (method, path string, body []byte) {
	q.j++
	switch (q.j - 1) % q.kinds {
	case 0:
		return "GET", "/estimate", nil
	case 1:
		return "GET", "/local?v=" + strconv.FormatUint(q.node(), 10), nil
	case 2:
		return "GET", "/topk?k=10", nil
	case 3:
		return "GET", "/cc?v=" + strconv.FormatUint(q.node(), 10), nil
	}
	b := append(q.body[:0], `{"nodes":[`...)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, q.node(), 10)
	}
	q.body = append(b, "]}"...)
	return "POST", "/query", q.body
}
