package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rept"
	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/hashing"
	"rept/internal/wal"
)

const (
	// viewInterval and compactEvery are reptserve's defaults for
	// -view-interval and -wal-compact-every, which the replay reproduces.
	viewInterval = 200 * time.Millisecond
	compactEvery = 500_000

	// replayEvents caps the replayed prefix of the acknowledged requests.
	// The replay holds the facade and the standalone engines at once, about
	// twice the server's memory, and runs them on one goroutine; the cap
	// keeps a traced run near a minute and a gigabyte while still covering
	// one compaction.
	replayEvents = 600_000
)

// shardConfigs mirrors how internal/shard splits a ConcurrentConfig over
// its engines (whole processor groups, a splitmix64 seed chain), so each
// standalone engine does one shard's work.
func shardConfigs(c rept.ConcurrentConfig) []core.Config {
	groups := (c.C + c.M - 1) / c.M
	n := c.Shards
	if n <= 0 {
		n = min(groups, 8)
	}
	n = min(n, groups)
	c1, c2 := c.C/c.M, c.C%c.M
	state := uint64(c.Seed)
	out := make([]core.Config, n)
	for i := range out {
		full := c1 / n
		if i < c1%n {
			full++
		}
		procs := full * c.M
		if i == n-1 {
			procs += c2
		}
		out[i] = core.Config{
			M: c.M, C: procs, Seed: int64(hashing.SplitMix64(&state)),
			TrackLocal: c.TrackLocal, FullyDynamic: c.FullyDynamic,
			TrackEta: c.TrackEta || (c1 > 0 && c2 > 0),
		}
	}
	return out
}

// replica is the traced run's in-process copy of a workload: the public
// facade with the workload's config, plus synchronous standalone replicas
// of the layers the server's shards run asynchronously: one core.Engine
// per shard, a degree table, a 1/m-sampled adjacency with its presence
// masks and, for durable workloads, a write-ahead log on disk.
type replica struct {
	w       *workload
	est     *rept.Concurrent
	views   *rept.Views
	engines []*core.Engine
	deg     *graph.DegreeTable
	adj     *graph.Adjacency
	masks   *graph.MaskTable
	lg      *wal.Log

	batch        rept.Batch
	sampled      []graph.Update
	events       int
	sinceCompact int
	sinceRefresh int
	insNs, delNs time.Duration
	ins, dels    int
	sink         uint64
}

func newReplica(w *workload, dir string) (*replica, error) {
	r := &replica{w: w, deg: graph.NewDegreeTable(), adj: graph.NewAdjacency(), masks: graph.NewMaskTable()}
	var err error
	if w.durable {
		// No automatic compaction: the replay compacts on reptserve's
		// schedule itself, inside a span.
		r.est, err = rept.ResumeDurable(w.cfg, rept.WALOptions{Dir: filepath.Join(dir, "facade")})
	} else {
		r.est, err = rept.NewConcurrent(w.cfg)
	}
	if err != nil {
		return nil, err
	}
	// The publisher's own ticker is pushed out of reach: the replay calls
	// Refresh every serving interval's worth of events, so the traced and
	// untraced replays publish the same epochs.
	if r.views, err = r.est.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
		r.close()
		return nil, err
	}
	for _, cc := range shardConfigs(w.cfg) {
		e, err := core.NewEngine(cc)
		if err != nil {
			r.close()
			return nil, err
		}
		r.engines = append(r.engines, e)
	}
	if w.durable {
		be, err := wal.NewDiskBackend(filepath.Join(dir, "replica"))
		if err == nil {
			var rec *wal.Recovered
			if rec, err = wal.Recover(be, 1); err == nil {
				// The directory is fresh, so there is nothing to replay.
				if _, err = rec.Replay(0, func([]graph.Update) error { return nil }); err == nil {
					r.lg, err = rec.Log(wal.Options{})
				}
			}
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replica) close() {
	if r.lg != nil {
		_ = r.lg.Close()
	}
	for _, e := range r.engines {
		e.Close()
	}
	if r.est != nil {
		r.est.Close()
	}
}

// apply replays request req through every layer; tr == nil runs the same
// calls untraced.
func (r *replica) apply(tr *tracer, req int, ups []graph.Update, refreshEvery int) error {
	root := tr.begin("request", req, -1)
	r.batch.Reset()
	for _, up := range ups {
		r.batch.Push(up)
	}
	s := tr.begin("rept.apply_batch", req, root)
	if r.w.durable {
		if err := r.est.ApplyBatchDurable(&r.batch); err != nil {
			return err
		}
	} else {
		r.est.ApplyBatch(&r.batch)
	}
	tr.end(s, len(ups))

	s = tr.begin("core.apply", req, root)
	if r.w.churn {
		// Inserts and deletes interleave in a body, so they are timed per
		// call.
		for _, up := range ups {
			t0 := time.Now()
			for _, e := range r.engines {
				e.Apply(up)
			}
			if d := time.Since(t0); up.Del {
				r.delNs, r.dels = r.delNs+d, r.dels+1
			} else {
				r.insNs, r.ins = r.insNs+d, r.ins+1
			}
		}
	} else {
		for _, e := range r.engines {
			e.ApplyBatch(ups)
		}
	}
	tr.end(s, len(ups))

	s = tr.begin("graph.degree_add", req, root)
	for _, up := range ups {
		r.deg.ApplyUpdate(up)
	}
	tr.end(s, len(ups))

	m := uint64(r.w.cfg.M)
	r.sampled = r.sampled[:0]
	for _, up := range ups {
		if hashing.Mix64(graph.Key(up.U, up.V))%m == 0 {
			r.sampled = append(r.sampled, up)
		}
	}
	s = tr.begin("graph.mask_get", req, root)
	for _, up := range r.sampled {
		r.sink += r.masks.Get(up.U) & r.masks.Get(up.V)
	}
	tr.end(s, 2*len(r.sampled))
	s = tr.begin("graph.common_count", req, root)
	for _, up := range r.sampled {
		r.sink += uint64(r.adj.CommonCount(up.U, up.V))
	}
	tr.end(s, len(r.sampled))
	s = tr.begin("graph.adjacency_add", req, root)
	adds := 0
	for _, up := range r.sampled {
		if !up.Del {
			r.adj.Add(up.U, up.V)
			adds++
		}
	}
	tr.end(s, adds)
	for _, up := range r.sampled {
		if up.Del {
			r.adj.Remove(up.U, up.V)
		} else {
			r.masks.Or(up.U, 1)
			r.masks.Or(up.V, 1)
		}
	}

	if r.lg != nil {
		s = tr.begin("wal.append", req, root)
		err := r.lg.Append(ups)
		tr.end(s, len(ups))
		if err != nil {
			return err
		}
		s = tr.begin("wal.fsync", req, root)
		err = r.lg.Commit()
		tr.end(s, 1)
		if err != nil {
			return err
		}
	}

	r.events += len(ups)
	r.sinceCompact += len(ups)
	r.sinceRefresh += len(ups)
	if r.w.durable && r.sinceCompact >= compactEvery {
		s = tr.begin("wal.compact", req, root)
		err := r.est.CompactWAL()
		tr.end(s, 1)
		if err != nil {
			return err
		}
		r.sinceCompact = 0
	}
	if r.sinceRefresh >= refreshEvery {
		s = tr.begin("query.refresh", req, root)
		r.views.Refresh()
		tr.end(s, 1)
		r.sinceRefresh = 0
	}
	tr.end(root, 1)
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// replay runs reqs through a fresh replica in dir and ends with a snapshot
// encode of the final state. It returns the wall time, the replica (for
// the caller to read and close) and the snapshot size.
func replay(w *workload, reqs [][]graph.Update, refreshEvery int, dir string, tr *tracer) (time.Duration, *replica, int64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, nil, 0, err
	}
	r, err := newReplica(w, dir)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	for i, ups := range reqs {
		if err := r.apply(tr, i, ups, refreshEvery); err != nil {
			r.close()
			return 0, nil, 0, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	s := tr.begin("snapshot.encode", -1, -1)
	var cw countWriter
	err = r.est.WriteSnapshot(&cw)
	tr.end(s, 1)
	wall := time.Since(start)
	if err != nil {
		r.close()
		return 0, nil, 0, err
	}
	return wall, r, cw.n, nil
}

// traceMetrics replays the acknowledged requests, up to replayEvents,
// twice: untraced and then traced. It records the per-layer figures of the
// traced replay. eps is the measured ingest rate, which sets how many
// events make one view interval. The spans are written to the work
// directory.
func traceMetrics(w *workload, reqs [][]graph.Update, eps float64, o options, v map[string]float64) error {
	for n, i := 0, 0; i < len(reqs); i++ {
		if n += len(reqs[i]); n >= replayEvents {
			reqs = reqs[:i+1]
			break
		}
	}
	refreshEvery := max(1, int(eps*viewInterval.Seconds()))
	dir := filepath.Join(o.workdir, "replay-"+w.name)
	defer os.RemoveAll(dir)
	plain, r, _, err := replay(w, reqs, refreshEvery, dir, nil)
	if err != nil {
		return err
	}
	r.close()
	runtime.GC()

	tr := newTracer()
	traced, r, snapBytes, err := replay(w, reqs, refreshEvery, dir, tr)
	if err != nil {
		return err
	}
	defer r.close()
	self := selfTimes(tr.spans)
	per := func(name string) float64 { return ratio(float64(self[name]), float64(tr.calls[name])) }
	v["rept.apply_batch_ns_per_event"] = per("rept.apply_batch")
	v["core.replica_apply_ns_per_event"] = per("core.apply")
	v["core.insert_ns"] = ratio(float64(r.insNs), float64(r.ins))
	v["core.delete_ns"] = ratio(float64(r.delNs), float64(r.dels))
	v["graph.common_count_ns"] = per("graph.common_count")
	v["graph.adjacency_add_ns"] = per("graph.adjacency_add")
	v["graph.mask_get_ns"] = per("graph.mask_get")
	v["graph.degree_add_ns"] = per("graph.degree_add")
	v["wal.bytes_per_event"] = 0
	if r.lg != nil {
		v["wal.bytes_per_event"] = ratio(float64(r.lg.Stats().LiveBytes), float64(r.events))
	}
	v["wal.compact_ms"] = per("wal.compact") / 1e6
	v["snapshot.encode_ms"] = per("snapshot.encode") / 1e6
	v["snapshot.bytes"] = float64(snapBytes)
	v["bench.trace_overhead_frac"] = traced.Seconds()/plain.Seconds() - 1
	return tr.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed)))
}
