package exper

import (
	"rept/internal/core"
	"rept/internal/hashing"
	"rept/internal/stats"
)

// AblationCombine (experiment A1) quantifies the value of the paper's
// Graybill–Deal combination in the c = c₁m + c₂ regime by evaluating all
// four strategies on identical Monte-Carlo runs.
func AblationCombine(p Profile, seed int64) (*Table, error) {
	grid := []struct{ m, c int }{{10, 15}, {10, 25}, {10, 32}}
	runs := p.GlobalRuns * 2
	if runs < 40 {
		runs = 40
	}
	datasets := p.Datasets
	if len(datasets) > 3 {
		datasets = datasets[:3]
	}
	t := &Table{
		ID:      "ablation-combine",
		Title:   "combination strategies for c = c₁m + c₂ (NRMSE)",
		Columns: []string{"dataset", "m", "c", "graybill-deal", "pooled", "full-only", "partial-only"},
		Notes: []string{
			"graybill-deal is the paper's Algorithm 2; pooled = m²Στ⁽ⁱ⁾/c; full-only/partial-only discard one class",
		},
	}
	for _, name := range datasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		tau := d.Tau()
		for _, g := range grid {
			gd := stats.NewMSE(tau)
			pooled := stats.NewMSE(tau)
			full := stats.NewMSE(tau)
			partial := stats.NewMSE(tau)
			for r := 0; r < runs; r++ {
				sim, err := core.NewSim(core.Config{M: g.m, C: g.c, Seed: seed + int64(r), TrackEta: true})
				if err != nil {
					return nil, err
				}
				sim.AddAll(d.Edges)
				agg := sim.Aggregates()
				gd.Add(agg.Estimate().Global)

				mf := float64(g.m)
				c1 := g.c / g.m
				c2 := g.c % g.m
				var sum1, sum2 float64
				for i, tp := range agg.TauProc {
					if i < c1*g.m {
						sum1 += float64(tp)
					} else {
						sum2 += float64(tp)
					}
				}
				pooled.Add(mf * mf * (sum1 + sum2) / float64(g.c))
				full.Add(mf / float64(c1) * sum1)
				partial.Add(mf * mf / float64(c2) * sum2)
			}
			t.Rows = append(t.Rows, []string{
				name, fmtInt(g.m), fmtInt(g.c),
				fmtFloat(gd.NRMSE()), fmtFloat(pooled.NRMSE()),
				fmtFloat(full.NRMSE()), fmtFloat(partial.NRMSE()),
			})
		}
	}
	return t, nil
}

// AblationHash (experiment A2) compares the default seeded 64-bit mixer
// hash family against a deliberately weak modulo hash. Edge keys are
// built from dense sequential node ids, so `key mod m` correlates with
// graph structure and skews the partition; the strong mixer does not.
func AblationHash(p Profile, seed int64) (*Table, error) {
	const m, c = 10, 10
	runs := p.GlobalRuns * 2
	if runs < 40 {
		runs = 40
	}
	datasets := p.Datasets
	if len(datasets) > 3 {
		datasets = datasets[:3]
	}
	weakFamily := func(_ uint64, count, mm int) []core.Hasher {
		out := make([]core.Hasher, count)
		for i := range out {
			out[i] = hashing.NewWeakMod(mm)
		}
		return out
	}
	t := &Table{
		ID:      "ablation-hash",
		Title:   "hash quality: seeded 64-bit mixer vs modulo (NRMSE, m=c=10)",
		Columns: []string{"dataset", "mixer", "weak-mod", "weak-mod-bias"},
		Notes: []string{
			"weak-mod is deterministic (key%m), so across runs its error is pure bias — the estimator loses its unbiasedness guarantee",
		},
	}
	for _, name := range datasets {
		d, err := Load(name, p.Scale)
		if err != nil {
			return nil, err
		}
		tau := d.Tau()
		strong := stats.NewMSE(tau)
		var weakVals stats.Welford
		weak := stats.NewMSE(tau)
		for r := 0; r < runs; r++ {
			sim, err := core.NewSim(core.Config{M: m, C: c, Seed: seed + int64(r), TrackEta: true})
			if err != nil {
				return nil, err
			}
			sim.AddAll(d.Edges)
			strong.Add(sim.Result().Global)
		}
		// The weak hash ignores the seed: one run suffices, its error is
		// deterministic bias. Run it once and report |bias|/τ as NRMSE.
		simW, err := core.NewSim(core.Config{M: m, C: c, Seed: seed, TrackEta: true, HashFamily: weakFamily})
		if err != nil {
			return nil, err
		}
		simW.AddAll(d.Edges)
		g := simW.Result().Global
		weak.Add(g)
		weakVals.Add(g)
		bias := (g - tau) / tau
		t.Rows = append(t.Rows, []string{
			name, fmtFloat(strong.NRMSE()), fmtFloat(weak.NRMSE()), fmtFloat(bias),
		})
	}
	return t, nil
}
