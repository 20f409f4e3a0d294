package exper

import (
	"fmt"
	"runtime"
	"time"

	"rept/internal/baselines"
	"rept/internal/graph"
	"rept/internal/shard"
)

// RuntimePoint is one (dataset, 1/p) cell of the runtime figure: seconds
// to process the full stream with c = Profile.RuntimeC logical processors.
type RuntimePoint struct {
	Dataset                   string
	InvP                      int
	REPT, Mascot, Triest, GPS float64 // seconds
	Edges                     int
}

// RuntimeResult is the data behind paper Figure 7.
type RuntimeResult struct {
	C      int
	Points []RuntimePoint
}

// RuntimeFig7 measures wall-clock runtime of the four parallel methods for
// varying 1/p at fixed c (paper: c = 10). All methods run over the same
// goroutine budget — REPT as that many engine shards, the baselines as
// that many workers — so the comparison is per-edge work, as in the
// paper. Expected shape: REPT ≈ MASCOT < TRIÈST < GPS.
func RuntimeFig7(p Profile, seed int64) (*RuntimeResult, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	res := &RuntimeResult{C: p.RuntimeC}
	warmed := false
	for _, name := range p.RuntimeDatasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		edges := d.Edges
		ups := graph.Inserts(edges)
		if !warmed {
			// Untimed warmup so the first measured cell does not pay
			// one-time allocator and code-path costs.
			warm := edges
			if len(warm) > 4096 {
				warm = warm[:4096]
			}
			if _, err := timeREPT(graph.Inserts(warm), 4, p.RuntimeC, workers, seed); err != nil {
				return nil, err
			}
			if _, err := timeParallel(warm, p.RuntimeC, workers, func(_ int, s int64) (baselines.Estimator, error) {
				return baselines.NewMascot(0.25, s, false)
			}); err != nil {
				return nil, err
			}
			warmed = true
		}

		pt := RuntimePoint{Dataset: name, Edges: len(edges)}
		for _, invP := range p.InvPs {
			pt.InvP = invP

			var err error
			if pt.REPT, err = timeREPT(ups, invP, p.RuntimeC, workers, seed); err != nil {
				return nil, err
			}
			// Parallel MASCOT.
			pt.Mascot, err = timeParallel(edges, p.RuntimeC, workers, func(_ int, s int64) (baselines.Estimator, error) {
				return baselines.NewMascot(1/float64(invP), s, false)
			})
			if err != nil {
				return nil, err
			}
			// Parallel TRIÈST.
			kT := budgetEdges(len(edges), invP, 1)
			pt.Triest, err = timeParallel(edges, p.RuntimeC, workers, func(_ int, s int64) (baselines.Estimator, error) {
				return baselines.NewTriest(kT, s, false)
			})
			if err != nil {
				return nil, err
			}
			// Parallel GPS (half budget).
			kG := budgetEdges(len(edges), invP, 2)
			pt.GPS, err = timeParallel(edges, p.RuntimeC, workers, func(_ int, s int64) (baselines.Estimator, error) {
				return baselines.NewGPS(kG, s, false)
			})
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// timeREPT times one REPT pass over ups on a shard.Sharded coordinator
// with the given shard budget (shard.Config caps it at the processor-group
// count), fed in request-sized batches and ending with a merged estimate
// so every in-flight batch is counted.
func timeREPT(ups []graph.Update, m, c, shards int, seed int64) (float64, error) {
	const chunk = 1024
	start := time.Now()
	s, err := shard.New(shard.Config{M: m, C: c, Shards: shards, Seed: seed})
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(ups); i += chunk {
		s.ApplyBatch(ups[i:min(i+chunk, len(ups))])
	}
	_ = s.Snapshot()
	s.Close()
	return time.Since(start).Seconds(), nil
}

func timeParallel(edges []graph.Edge, c, workers int, factory baselines.Factory) (float64, error) {
	start := time.Now()
	par, err := baselines.NewParallelFrom(c, 99, workers, factory)
	if err != nil {
		return 0, err
	}
	for _, e := range edges {
		par.Add(e.U, e.V)
	}
	_ = par.Global()
	par.Close()
	return time.Since(start).Seconds(), nil
}

// Table renders the result in paper-figure layout.
func (r *RuntimeResult) Table(id string) *Table {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("runtime (seconds) vs 1/p, c = %d logical processors", r.C),
		Columns: []string{"dataset", "edges", "1/p", "REPT", "MASCOT", "Triest", "GPS"},
		Notes: []string{
			"wall-clock on this machine; the paper's shape is REPT ≈ MASCOT < Triest < GPS",
		},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Dataset, fmtInt(pt.Edges), fmtInt(pt.InvP),
			fmtFloat(pt.REPT), fmtFloat(pt.Mascot), fmtFloat(pt.Triest), fmtFloat(pt.GPS),
		})
	}
	return t
}
