package core

import (
	"math"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// TestMergeGroupsEquivalence: merging K single-group shards (C = M) with
// the seeds a monolithic engine would derive must reproduce the
// monolithic engine's counters and estimate exactly. This requires
// feeding the shards the hash each group would have used, so we drive
// them through HashFamily overrides.
func TestMergeGroupsEquivalence(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(200, 5, 0.6, 4), 9)
	const m, k = 3, 3 // merged: c = 9 = 3 groups of 3
	mono, err := NewSim(Config{M: m, C: m * k, Seed: 77, TrackLocal: true, TrackEta: true})
	if err != nil {
		t.Fatal(err)
	}
	mono.AddAll(edges)
	monoAgg := mono.Aggregates()

	// Shards: group g of the monolithic engine uses family[g]; replicate
	// by overriding each shard's family with the monolithic one shifted.
	family := Config{M: m, C: m * k, Seed: 77}.hashFamily(k)
	shards := make([]*Aggregates, k)
	for g := 0; g < k; g++ {
		hg := family[g]
		sim, err := NewSim(Config{
			M: m, C: m, Seed: int64(1000 + g), TrackLocal: true, TrackEta: true,
			HashFamily: func(_ uint64, count, _ int) []Hasher {
				out := make([]Hasher, count)
				for i := range out {
					out[i] = hg
				}
				return out
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.AddAll(edges)
		shards[g] = sim.Aggregates()
	}
	merged, err := MergeGroups(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.C != m*k || merged.M != m {
		t.Fatalf("merged layout M=%d C=%d, want %d %d", merged.M, merged.C, m, m*k)
	}
	for i := range monoAgg.TauProc {
		if merged.TauProc[i] != monoAgg.TauProc[i] {
			t.Fatalf("TauProc[%d]: merged %d, mono %d", i, merged.TauProc[i], monoAgg.TauProc[i])
		}
	}
	gm, gd := merged.Estimate(), monoAgg.Estimate()
	if math.Abs(gm.Global-gd.Global) > 1e-9 {
		t.Errorf("merged Global %v != mono %v", gm.Global, gd.Global)
	}
	for v, x := range gd.Local {
		if math.Abs(gm.Local[v]-x) > 1e-9 {
			t.Errorf("merged Local[%d] %v != mono %v", v, gm.Local[v], x)
		}
	}
}

func TestMergeGroupsValidation(t *testing.T) {
	mk := func(m, c int) *Aggregates {
		return &Aggregates{M: m, C: c, TauProc: make([]int64, c)}
	}
	if _, err := MergeGroups(); err == nil {
		t.Error("MergeGroups(): got nil error")
	}
	if _, err := MergeGroups(mk(3, 3), mk(4, 4)); err == nil {
		t.Error("mixed M: got nil error")
	}
	// Non-final shard with partial group.
	if _, err := MergeGroups(mk(3, 2), mk(3, 3)); err == nil {
		t.Error("partial group in non-final shard: got nil error")
	}
	// Final shard with partial group is fine.
	merged, err := MergeGroups(mk(3, 3), mk(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if merged.C != 5 {
		t.Errorf("merged C = %d, want 5", merged.C)
	}
	// Broken shard rejected.
	bad := &Aggregates{M: 3, C: 3, TauProc: make([]int64, 1)}
	if _, err := MergeGroups(bad); err == nil {
		t.Error("inconsistent shard: got nil error")
	}
}

func TestMergeGroupsEtaHandling(t *testing.T) {
	withEta := func(c int) *Aggregates {
		return &Aggregates{M: 3, C: c, TauProc: make([]int64, c), EtaProc: make([]int64, c)}
	}
	noEta := func(c int) *Aggregates {
		return &Aggregates{M: 3, C: c, TauProc: make([]int64, c)}
	}
	m1, err := MergeGroups(withEta(3), withEta(3))
	if err != nil {
		t.Fatal(err)
	}
	if m1.EtaProc == nil {
		t.Error("all shards tracked η but merged EtaProc is nil")
	}
	m2, err := MergeGroups(withEta(3), noEta(3))
	if err != nil {
		t.Fatal(err)
	}
	if m2.EtaProc != nil {
		t.Error("mixed η tracking must drop merged EtaProc")
	}
}

// TestMergeGroupsLocalReclassification: a shard with C = M stores local
// sums in TauV1 (it is one full group); a shard with C < M stores them in
// TauV2. After merging, non-final shards' sums must all be class 1.
func TestMergeGroupsLocalReclassification(t *testing.T) {
	s1 := &Aggregates{
		M: 3, C: 3, TauProc: make([]int64, 3),
		TauV1: tableOf(map[graph.NodeID]int64{1: 5}),
		TauV2: tableOf(map[graph.NodeID]int64{}),
	}
	s2 := &Aggregates{
		M: 3, C: 2, TauProc: make([]int64, 2),
		TauV1: tableOf(map[graph.NodeID]int64{}),
		TauV2: tableOf(map[graph.NodeID]int64{1: 7, 2: 1}),
	}
	merged, err := MergeGroups(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TauV1.Get(1) != 5 || merged.TauV2.Get(1) != 7 || merged.TauV2.Get(2) != 1 {
		t.Errorf("merged locals wrong: TauV1=%v TauV2=%v", tableMap(merged.TauV1), tableMap(merged.TauV2))
	}
	// Final shard with full groups goes to class 1 too.
	s3 := &Aggregates{
		M: 3, C: 3, TauProc: make([]int64, 3),
		TauV1: tableOf(map[graph.NodeID]int64{}),
		TauV2: tableOf(map[graph.NodeID]int64{4: 2}), // e.g. produced by a C<M run... reclassified
	}
	merged2, err := MergeGroups(s1, s3)
	if err != nil {
		t.Fatal(err)
	}
	if merged2.TauV1.Get(4) != 2 || merged2.TauV2.Len() != 0 {
		t.Errorf("full-group final shard not reclassified: TauV1=%v TauV2=%v", tableMap(merged2.TauV1), tableMap(merged2.TauV2))
	}
}

// TestVarianceEstimateCoverage: the plug-in variance must yield usable
// confidence intervals — ~95% of runs within 2.5 standard errors.
func TestVarianceEstimateCoverage(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(200, 6, 0.6, 6), 3)
	exact := graph.CountExact(edges, graph.ExactOptions{})
	tau := float64(exact.Tau)
	const runs = 150
	for _, cfg := range []Config{
		{M: 4, C: 4, TrackEta: true},  // c = m: Var needs no η but track anyway
		{M: 4, C: 3, TrackEta: true},  // c < m: η required
		{M: 3, C: 7, TrackEta: false}, // c₂ ≠ 0: η auto-enabled
	} {
		covered := 0
		for r := 0; r < runs; r++ {
			cfg.Seed = int64(300 + r)
			sim, err := NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.AddAll(edges)
			res := sim.Result()
			if math.IsNaN(res.Variance) {
				t.Fatalf("cfg %+v: Variance is NaN", cfg)
			}
			if math.Abs(res.Global-tau) <= 2.5*math.Sqrt(res.Variance) {
				covered++
			}
		}
		if frac := float64(covered) / runs; frac < 0.85 {
			t.Errorf("cfg M=%d C=%d: CI coverage %.2f < 0.85", cfg.M, cfg.C, frac)
		}
	}
	// Without η tracking, c < m has no variance estimate.
	sim, err := NewSim(Config{M: 4, C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.AddAll(edges)
	if !math.IsNaN(sim.Result().Variance) {
		t.Error("c < m without TrackEta: Variance should be NaN")
	}
	// c = c₁m never needs η.
	sim2, err := NewSim(Config{M: 4, C: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim2.AddAll(edges)
	if math.IsNaN(sim2.Result().Variance) {
		t.Error("c = 2m: Variance should be available without TrackEta")
	}
}
