package exper

import (
	"fmt"

	"rept/internal/baselines"
	"rept/internal/core"
	"rept/internal/stats"
)

// GlobalPoint is one (dataset, c) cell of a global-accuracy figure.
type GlobalPoint struct {
	Dataset string
	C       int
	// Empirical NRMSE per method.
	REPT, Mascot, Triest, GPS float64
	// Closed-form overlays (paper Theorem 3 and parallel-MASCOT variance).
	REPTTheory, MascotTheory float64
}

// GlobalResult is the data behind paper Figures 3 (p = 0.01) and 4
// (p = 0.1): global-count NRMSE as a function of the processor count c
// for REPT and the directly parallelized baselines.
type GlobalResult struct {
	InvP    float64
	CValues []int
	Points  []GlobalPoint
}

// GlobalAccuracy measures global-count NRMSE for every dataset in the
// profile and every c in cvals, with sampling probability p = 1/invP.
//
// REPT is run directly (GlobalRuns Monte-Carlo passes; one Sim pass per
// run yields the estimates of every c at once). The parallel baselines
// average c independent *unbiased* instances, so their NRMSE is derived
// analytically from Trials single-instance trials as sqrt(MSE_single/c)/τ
// (exact for independent unbiased instances — see
// stats.MSE.NRMSEOfAverage). Per the paper's memory accounting, TRIÈST gets
// budget |E|/invP and GPS half of that.
func GlobalAccuracy(p Profile, invP int, cvals []int, seed int64) (*GlobalResult, error) {
	if invP < 1 {
		return nil, fmt.Errorf("exper: invP = %d, need >= 1", invP)
	}
	res := &GlobalResult{InvP: float64(invP), CValues: cvals}
	cmax := 0
	for _, c := range cvals {
		if c > cmax {
			cmax = c
		}
	}
	for _, name := range p.Datasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		tau, eta := d.Tau(), d.Eta()

		// REPT Monte-Carlo: one pass per run covers all c values.
		reptMSE := make(map[int]*stats.MSE, len(cvals))
		for _, c := range cvals {
			reptMSE[c] = stats.NewMSE(tau)
		}
		for r := 0; r < p.GlobalRuns; r++ {
			sim, err := core.NewSim(core.Config{M: invP, C: cmax, Seed: seed + int64(r), TrackEta: true})
			if err != nil {
				return nil, err
			}
			sim.AddAll(d.Edges)
			for _, c := range cvals {
				est, err := sim.ResultFor(c)
				if err != nil {
					return nil, err
				}
				reptMSE[c].Add(est.Global)
			}
		}

		// Baseline single-instance trials (MSE measured around the truth;
		// the estimators are unbiased, so MSE/c is the exact MSE of the
		// paper's c-instance average).
		mascotMSE, err := baselineTrials(d, p.Trials, seed, func(s int64) (baselines.Estimator, error) {
			return baselines.NewMascot(1/float64(invP), s, false)
		})
		if err != nil {
			return nil, err
		}
		kTriest := budgetEdges(len(d.Edges), invP, 1)
		triestMSE, err := baselineTrials(d, p.Trials, seed+7777, func(s int64) (baselines.Estimator, error) {
			return baselines.NewTriest(kTriest, s, false)
		})
		if err != nil {
			return nil, err
		}
		kGPS := budgetEdges(len(d.Edges), invP, 2)
		gpsMSE, err := baselineTrials(d, p.Trials, seed+15555, func(s int64) (baselines.Estimator, error) {
			return baselines.NewGPS(kGPS, s, false)
		})
		if err != nil {
			return nil, err
		}

		for _, c := range cvals {
			res.Points = append(res.Points, GlobalPoint{
				Dataset:      name,
				C:            c,
				REPT:         reptMSE[c].NRMSE(),
				Mascot:       mascotMSE.NRMSEOfAverage(c),
				Triest:       triestMSE.NRMSEOfAverage(c),
				GPS:          gpsMSE.NRMSEOfAverage(c),
				REPTTheory:   core.NRMSETheory(core.VarREPT(invP, c, tau, eta), tau),
				MascotTheory: core.NRMSETheory(core.VarParallelMascot(invP, c, tau, eta), tau),
			})
		}
	}
	return res, nil
}

// budgetEdges computes an edge budget |E|/invP/divisor, clamped to the
// minimum the estimators accept.
func budgetEdges(edges, invP, divisor int) int {
	k := edges / invP / divisor
	if k < 2 {
		k = 2
	}
	return k
}

// baselineTrials runs N independent single-instance trials and returns
// the MSE of the global estimate around the exact τ.
func baselineTrials(d *Dataset, n int, seed int64, factory func(seed int64) (baselines.Estimator, error)) (*stats.MSE, error) {
	acc := stats.NewMSE(d.Tau())
	for t := 0; t < n; t++ {
		est, err := factory(seed + int64(t)*1009)
		if err != nil {
			return nil, err
		}
		baselines.AddAll(est, d.Edges)
		acc.Add(est.Global())
	}
	return acc, nil
}

// Table renders the result in paper-figure layout.
func (r *GlobalResult) Table(id string) *Table {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("global triangle count NRMSE vs c, p = 1/%.0f", r.InvP),
		Columns: []string{
			"dataset", "c", "REPT", "MASCOT", "Triest", "GPS",
			"REPT(theory)", "MASCOT(theory)",
		},
		Notes: []string{
			"MASCOT/Triest/GPS are the paper's direct parallelizations (c independent instances, averaged)",
			"GPS receives half the edge budget (it stores weights; paper §IV-B)",
		},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Dataset, fmtInt(pt.C),
			fmtFloat(pt.REPT), fmtFloat(pt.Mascot), fmtFloat(pt.Triest), fmtFloat(pt.GPS),
			fmtFloat(pt.REPTTheory), fmtFloat(pt.MascotTheory),
		})
	}
	return t
}
