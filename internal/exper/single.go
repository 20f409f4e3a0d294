package exper

import (
	"fmt"
	"runtime"
	"time"

	"rept/internal/baselines"
	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/stats"
)

// SinglePoint is one (1/p, c) cell of the single-threaded comparison:
// runtime and NRMSE of REPT with c processors versus single-threaded
// baselines given the same total memory (MASCOT-S with probability c·p,
// TRIÈST-S with budget c·p·|E|, GPS-S with half that).
type SinglePoint struct {
	InvP, C int

	REPTTime, MascotSTime, TriestSTime, GPSSTime float64 // seconds
	REPTErr, MascotSErr, TriestSErr, GPSSErr     float64 // NRMSE
}

// SingleResult is the data behind paper Figure 8 (dataset: Flickr analog).
type SingleResult struct {
	Dataset string
	Points  []SinglePoint
}

// Fig8 compares parallel REPT against single-threaded equal-memory
// baselines on the Flickr analog, for 1/p = 10 (c up to 10, where
// c·p = 1 means MASCOT-S degenerates to exact counting) and 1/p = 100
// (c up to 32), mirroring paper Figure 8.
func Fig8(p Profile, seed int64) (*SingleResult, error) {
	const dataset = "sim-flickr"
	d, err := Load(dataset, p.Scale)
	if err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	res := &SingleResult{Dataset: dataset}
	tau := d.Tau()
	ups := graph.Inserts(d.Edges)

	configs := []struct {
		invP  int
		cvals []int
	}{
		{10, []int{2, 4, 6, 8, 10}},
		{100, []int{8, 16, 24, 32}},
	}
	for _, cf := range configs {
		for _, c := range cf.cvals {
			pt := SinglePoint{InvP: cf.invP, C: c}

			// --- Runtime (one timed pass each). ---
			var err error
			if pt.REPTTime, err = timeREPT(ups, cf.invP, c, workers, seed); err != nil {
				return nil, err
			}

			pEff := float64(c) / float64(cf.invP)
			if pEff > 1 {
				pEff = 1
			}
			start := time.Now()
			ms, err := baselines.NewMascot(pEff, seed, false)
			if err != nil {
				return nil, err
			}
			baselines.AddAll(ms, d.Edges)
			pt.MascotSTime = time.Since(start).Seconds()

			kT := budgetEdges(len(d.Edges)*c, cf.invP, 1)
			start = time.Now()
			ts, err := baselines.NewTriest(kT, seed, false)
			if err != nil {
				return nil, err
			}
			baselines.AddAll(ts, d.Edges)
			pt.TriestSTime = time.Since(start).Seconds()

			kG := budgetEdges(len(d.Edges)*c, cf.invP, 2)
			start = time.Now()
			gs, err := baselines.NewGPS(kG, seed, false)
			if err != nil {
				return nil, err
			}
			baselines.AddAll(gs, d.Edges)
			pt.GPSSTime = time.Since(start).Seconds()

			// --- Errors (Monte-Carlo / trials). ---
			reptMSE := stats.NewMSE(tau)
			for r := 0; r < p.GlobalRuns; r++ {
				sim, err := core.NewSim(core.Config{M: cf.invP, C: c, Seed: seed + int64(r), TrackEta: true})
				if err != nil {
					return nil, err
				}
				sim.AddAll(d.Edges)
				reptMSE.Add(sim.Result().Global)
			}
			pt.REPTErr = reptMSE.NRMSE()

			singleErr := func(factory func(s int64) (baselines.Estimator, error)) (float64, error) {
				tr, err := baselineTrials(d, p.Trials, seed+400, factory)
				if err != nil {
					return 0, err
				}
				return tr.NRMSE(), nil
			}
			if pt.MascotSErr, err = singleErr(func(s int64) (baselines.Estimator, error) {
				return baselines.NewMascot(pEff, s, false)
			}); err != nil {
				return nil, err
			}
			if pt.TriestSErr, err = singleErr(func(s int64) (baselines.Estimator, error) {
				return baselines.NewTriest(kT, s, false)
			}); err != nil {
				return nil, err
			}
			if pt.GPSSErr, err = singleErr(func(s int64) (baselines.Estimator, error) {
				return baselines.NewGPS(kG, s, false)
			}); err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Table renders the result in paper-figure layout.
func (r *SingleResult) Table(id string) *Table {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("REPT vs single-threaded equal-memory baselines (%s)", r.Dataset),
		Columns: []string{
			"1/p", "c",
			"t(REPT)", "t(MASCOT-S)", "t(Triest-S)", "t(GPS-S)",
			"err(REPT)", "err(MASCOT-S)", "err(Triest-S)", "err(GPS-S)",
		},
		Notes: []string{
			"MASCOT-S samples with probability c·p; Triest-S budget c·p·|E|; GPS-S half (paper §IV-E)",
			"times in seconds; err = NRMSE of the global count",
		},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmtInt(pt.InvP), fmtInt(pt.C),
			fmtFloat(pt.REPTTime), fmtFloat(pt.MascotSTime), fmtFloat(pt.TriestSTime), fmtFloat(pt.GPSSTime),
			fmtFloat(pt.REPTErr), fmtFloat(pt.MascotSErr), fmtFloat(pt.TriestSErr), fmtFloat(pt.GPSSErr),
		})
	}
	return t
}
