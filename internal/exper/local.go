package exper

import (
	"fmt"
	"math"

	"rept/internal/baselines"
	"rept/internal/core"
	"rept/internal/graph"
)

// LocalPoint is one (dataset, c) cell of a local-accuracy figure. Values
// are the mean, over nodes with τ_v > 0, of per-node NRMSE — the scalar
// the paper plots in Figures 5 and 6. GPS is excluded, as in the paper.
//
// Empirical columns (REPT, Mascot, Triest) are Monte-Carlo measurements;
// theory columns are the exact per-node closed forms evaluated with the
// true τ_v and η_v (REPT: Theorem 3; MASCOT: Lemma 6 scaled by 1/c). At
// p = 0.01 the per-node sampling events are so rare (≈p² per trial) that
// feasible trial counts systematically under-observe the error tails, so
// the empirical columns are downward-biased for all methods there; the
// theory columns are exact and carry the comparison.
type LocalPoint struct {
	Dataset              string
	C                    int
	REPT, Mascot, Triest float64 // empirical
	REPTTheory           float64 // exact closed form
	MascotTheory         float64 // exact closed form (≈ TRIÈST, paper §III-C)
}

// LocalResult is the data behind paper Figures 5 (p = 0.01) and 6 (p = 0.1).
type LocalResult struct {
	InvP    float64
	CValues []int
	Points  []LocalPoint
}

// LocalAccuracy measures local-count NRMSE. REPT needs one Sim pass per
// (run, c) because the per-node class sums depend on the group layout of
// c. The parallel baselines are derived analytically per node from Trials
// single-instance trials, exactly as in GlobalAccuracy but node-wise.
func LocalAccuracy(p Profile, invP int, cvals []int, seed int64) (*LocalResult, error) {
	if invP < 1 {
		return nil, fmt.Errorf("exper: invP = %d, need >= 1", invP)
	}
	res := &LocalResult{InvP: float64(invP), CValues: cvals}
	for _, name := range p.LocalDatasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		d.EnsureEtaV()
		nodes := sortedNodes(d.Exact)
		if len(nodes) == 0 {
			continue
		}
		truth := make([]float64, len(nodes))
		etaV := make([]float64, len(nodes))
		for i, v := range nodes {
			truth[i] = float64(d.Exact.TauV[v])
			etaV[i] = float64(d.Exact.EtaV[v])
		}

		// REPT: per-c Monte-Carlo, accumulating per-node squared errors.
		reptNRMSE := make(map[int]float64, len(cvals))
		for _, c := range cvals {
			sumSq := make([]float64, len(nodes))
			for r := 0; r < p.LocalRuns; r++ {
				sim, err := core.NewSim(core.Config{
					M: invP, C: c, Seed: seed + int64(r)*101 + int64(c),
					TrackLocal: true,
				})
				if err != nil {
					return nil, err
				}
				sim.AddAll(d.Edges)
				est := sim.Result()
				for i, v := range nodes {
					dlt := est.Local[v] - truth[i]
					sumSq[i] += dlt * dlt
				}
			}
			reptNRMSE[c] = meanNodeNRMSE(sumSq, truth, p.LocalRuns)
		}

		// Baselines: per-node trial statistics.
		mascotStats, err := localTrials(d, nodes, p.Trials, seed+31, func(s int64) (baselines.Estimator, error) {
			return baselines.NewMascot(1/float64(invP), s, true)
		})
		if err != nil {
			return nil, err
		}
		kTriest := budgetEdges(len(d.Edges), invP, 1)
		triestStats, err := localTrials(d, nodes, p.Trials, seed+57, func(s int64) (baselines.Estimator, error) {
			return baselines.NewTriest(kTriest, s, true)
		})
		if err != nil {
			return nil, err
		}

		for _, c := range cvals {
			res.Points = append(res.Points, LocalPoint{
				Dataset:      name,
				C:            c,
				REPT:         reptNRMSE[c],
				Mascot:       mascotStats.nrmseOfAverage(c, truth),
				Triest:       triestStats.nrmseOfAverage(c, truth),
				REPTTheory:   meanTheoryNRMSE(truth, etaV, invP, c, core.VarREPT),
				MascotTheory: meanTheoryNRMSE(truth, etaV, invP, c, core.VarParallelMascot),
			})
		}
	}
	return res, nil
}

// meanTheoryNRMSE averages the closed-form per-node NRMSE over nodes with
// τ_v > 0, using the exact τ_v and η_v.
func meanTheoryNRMSE(truth, etaV []float64, m, c int, varFn func(m, c int, tau, eta float64) float64) float64 {
	total, n := 0.0, 0
	for i := range truth {
		if truth[i] <= 0 {
			continue
		}
		total += math.Sqrt(varFn(m, c, truth[i], etaV[i])) / truth[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// meanNodeNRMSE averages sqrt(MSE_v)/τ_v over the tracked nodes.
func meanNodeNRMSE(sumSq, truth []float64, runs int) float64 {
	total, n := 0.0, 0
	for i := range truth {
		if truth[i] <= 0 {
			continue
		}
		total += math.Sqrt(sumSq[i]/float64(runs)) / truth[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// nodeTrialStats holds per-node squared error around τ_v over
// single-instance trials. The baselines are unbiased per node, so
// MSE_v/c is the exact MSE of the paper's c-instance average.
type nodeTrialStats struct {
	n     int
	sumSq []float64
}

// localTrials runs n single-instance trials with local tracking and
// accumulates per-node squared errors for the given node set.
func localTrials(d *Dataset, nodes []graph.NodeID, n int, seed int64, factory func(seed int64) (baselines.Estimator, error)) (*nodeTrialStats, error) {
	truth := make([]float64, len(nodes))
	for i, v := range nodes {
		truth[i] = float64(d.Exact.TauV[v])
	}
	st := &nodeTrialStats{n: n, sumSq: make([]float64, len(nodes))}
	for t := 0; t < n; t++ {
		est, err := factory(seed + int64(t)*1013)
		if err != nil {
			return nil, err
		}
		baselines.AddAll(est, d.Edges)
		for i, v := range nodes {
			dlt := est.Local(v) - truth[i]
			st.sumSq[i] += dlt * dlt
		}
	}
	return st, nil
}

// nrmseOfAverage computes the mean per-node NRMSE of averaging c iid
// unbiased instances: sqrt(MSE_v/c)/τ_v averaged over nodes.
func (st *nodeTrialStats) nrmseOfAverage(c int, truth []float64) float64 {
	total, n := 0.0, 0
	for i := range truth {
		if truth[i] <= 0 {
			continue
		}
		mse := st.sumSq[i] / float64(st.n) / float64(c)
		total += math.Sqrt(mse) / truth[i]
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return total / float64(n)
}

// Table renders the result in paper-figure layout.
func (r *LocalResult) Table(id string) *Table {
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("local triangle count NRMSE vs c, p = 1/%.0f (mean over nodes with τ_v > 0)", r.InvP),
		Columns: []string{"dataset", "c", "REPT", "MASCOT", "Triest", "REPT(theory)", "MASCOT(theory)"},
		Notes: []string{
			"GPS is excluded from local figures, as in the paper (Figs. 5-6)",
			"empirical columns are downward-biased when sampling events are rarer than the Monte-Carlo budget (p=0.01); theory columns are exact per-node closed forms",
		},
	}
	for _, pt := range r.Points {
		t.Rows = append(t.Rows, []string{
			pt.Dataset, fmtInt(pt.C), fmtFloat(pt.REPT), fmtFloat(pt.Mascot), fmtFloat(pt.Triest),
			fmtFloat(pt.REPTTheory), fmtFloat(pt.MascotTheory),
		})
	}
	return t
}
