package shard

import (
	"math"
	"sync"
	"testing"

	"rept/internal/core"
	"rept/internal/gen"
	"rept/internal/graph"
)

func testStream(t *testing.T) []graph.Edge {
	t.Helper()
	return gen.Shuffle(gen.ErdosRenyi(200, 3000, 7), 11)
}

func exactTau(t *testing.T, edges []graph.Edge) float64 {
	t.Helper()
	r := graph.CountExact(edges, graph.ExactOptions{})
	return float64(r.Tau)
}

func TestShardConfigsPartition(t *testing.T) {
	cases := []struct {
		cfg   Config
		wantC []int
	}{
		{Config{M: 4, C: 16, Shards: 2, Seed: 1}, []int{8, 8}},
		{Config{M: 4, C: 10, Shards: 3, Seed: 1}, []int{4, 4, 2}},
		{Config{M: 5, C: 3, Shards: 4, Seed: 1}, []int{3}},     // clamped to 1 group
		{Config{M: 2, C: 12, Shards: 0, Seed: 1}, nil},         // default shard count
		{Config{M: 3, C: 10, Shards: 2, Seed: 1}, []int{6, 4}}, // partial group on last
		{Config{M: 1, C: 5, Shards: 2, Seed: 1}, []int{3, 2}},  // M=1 exact mode
	}
	for _, tc := range cases {
		subs := tc.cfg.shardConfigs()
		if tc.wantC != nil {
			if len(subs) != len(tc.wantC) {
				t.Fatalf("cfg %+v: got %d shards, want %d", tc.cfg, len(subs), len(tc.wantC))
			}
			for i, sc := range subs {
				if sc.C != tc.wantC[i] {
					t.Errorf("cfg %+v shard %d: C=%d, want %d", tc.cfg, i, sc.C, tc.wantC[i])
				}
			}
		}
		total := 0
		seeds := make(map[int64]bool)
		for i, sc := range subs {
			total += sc.C
			if sc.M != tc.cfg.M {
				t.Errorf("cfg %+v shard %d: M=%d, want %d", tc.cfg, i, sc.M, tc.cfg.M)
			}
			if i < len(subs)-1 && sc.C%sc.M != 0 {
				t.Errorf("cfg %+v shard %d: C=%d not full groups of M=%d", tc.cfg, i, sc.C, sc.M)
			}
			if seeds[sc.Seed] {
				t.Errorf("cfg %+v shard %d: duplicate seed %d", tc.cfg, i, sc.Seed)
			}
			seeds[sc.Seed] = true
		}
		if total != tc.cfg.C {
			t.Errorf("cfg %+v: shards cover %d processors, want %d", tc.cfg, total, tc.cfg.C)
		}
	}
}

// TestMatchesMergeGroups drives a Sharded coordinator from one goroutine
// and checks its snapshot is bit-identical to feeding the same stream to
// the same per-shard engine configurations and merging by hand. This is
// the determinism-per-shard-seed contract: the concurrent layer adds no
// statistical behavior of its own.
func TestMatchesMergeGroups(t *testing.T) {
	edges := testStream(t)
	for _, cfg := range []Config{
		{M: 3, C: 12, Shards: 3, Seed: 42, TrackLocal: true},
		{M: 4, C: 10, Shards: 3, Seed: 42, TrackLocal: true}, // partial group + η path
		{M: 5, C: 5, Shards: 1, Seed: 42},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		for _, e := range edges {
			s.Add(e.U, e.V)
		}
		got := s.Snapshot()
		s.Close()

		shards := make([]*core.Aggregates, 0, len(cfg.shardConfigs()))
		for _, sc := range cfg.shardConfigs() {
			eng, err := core.NewEngine(sc)
			if err != nil {
				t.Fatalf("NewEngine(%+v): %v", sc, err)
			}
			eng.AddAll(edges)
			shards = append(shards, eng.Aggregates())
			eng.Close()
		}
		merged, err := core.MergeGroups(shards...)
		if err != nil {
			t.Fatalf("MergeGroups: %v", err)
		}
		want := merged.Estimate()
		if got.Global != want.Global {
			t.Errorf("cfg %+v: sharded Global = %v, hand-merged = %v", cfg, got.Global, want.Global)
		}
		if len(got.Local) != len(want.Local) {
			t.Errorf("cfg %+v: sharded %d local entries, hand-merged %d", cfg, len(got.Local), len(want.Local))
		}
		for v, x := range want.Local {
			if got.Local[v] != x {
				t.Errorf("cfg %+v: Local[%d] = %v, want %v", cfg, v, got.Local[v], x)
			}
		}
	}
}

// TestDeterministic runs the same single-caller stream twice and expects
// identical estimates (hash families are pure functions of the seed).
func TestDeterministic(t *testing.T) {
	edges := testStream(t)
	cfg := Config{M: 4, C: 16, Shards: 4, Seed: 9, TrackLocal: true}
	run := func() core.Estimate {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.ApplyBatch(graph.Inserts(edges))
		return s.Snapshot()
	}
	a, b := run(), run()
	if a.Global != b.Global {
		t.Errorf("two identical runs disagree: %v vs %v", a.Global, b.Global)
	}
}

// TestConcurrentIngestAccuracy feeds the stream from 8 goroutines under
// the race detector and checks the merged estimate lands within a loose
// envelope of the exact count (theoretical stderr is well under 1% here,
// the 10% tolerance covers every interleaving).
func TestConcurrentIngestAccuracy(t *testing.T) {
	edges := testStream(t)
	tau := exactTau(t, edges)
	s, err := New(Config{M: 4, C: 64, Shards: 4, Seed: 5, BatchSize: 64, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const producers = 8
	var wg sync.WaitGroup
	chunk := (len(edges) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := p * chunk
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		wg.Add(1)
		go func(part []graph.Edge) {
			defer wg.Done()
			for _, e := range part {
				s.Add(e.U, e.V)
			}
		}(edges[lo:hi])
	}
	wg.Wait()

	if got := s.Processed(); got != uint64(len(edges)) {
		t.Fatalf("Processed = %d, want %d", got, len(edges))
	}
	est := s.Snapshot()
	if rel := math.Abs(est.Global-tau) / tau; rel > 0.10 {
		t.Errorf("Global = %v, exact = %v, relative error %.3f > 0.10", est.Global, tau, rel)
	}
	if s.SampledEdges() == 0 {
		t.Error("SampledEdges = 0 after ingesting a dense stream")
	}
}

// TestSnapshotMidStream interleaves snapshots with concurrent ingestion:
// snapshots must be monotone in stream position and never disturb later
// estimates.
func TestSnapshotMidStream(t *testing.T) {
	edges := testStream(t)
	s, err := New(Config{M: 4, C: 32, Shards: 2, Seed: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ApplyBatch(graph.Inserts(edges))
	}()
	for i := 0; i < 5; i++ {
		_ = s.Snapshot() // must not race or deadlock
	}
	wg.Wait()

	tau := exactTau(t, edges)
	est := s.Snapshot()
	if rel := math.Abs(est.Global-tau) / tau; rel > 0.15 {
		t.Errorf("post-stream Global = %v, exact = %v, relative error %.3f", est.Global, tau, rel)
	}
}

func TestSelfLoopsSkipped(t *testing.T) {
	s, err := New(Config{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Add(3, 3)
	s.ApplyBatch(graph.Inserts([]graph.Edge{{U: 1, V: 1}, {U: 1, V: 2}}))
	if got := s.SelfLoops(); got != 2 {
		t.Errorf("SelfLoops = %d, want 2", got)
	}
	if got := s.Processed(); got != 1 {
		t.Errorf("Processed = %d, want 1", got)
	}
}

// TestCloseContract covers the documented panic-after-Close behavior and
// idempotent Close.
func TestCloseContract(t *testing.T) {
	s, err := New(Config{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1, 2)
	s.Close()
	s.Close() // idempotent

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s after Close did not panic", name)
			} else if r != core.ErrClosed {
				t.Errorf("%s after Close panicked with %v, want core.ErrClosed", name, r)
			}
		}()
		f()
	}
	mustPanic("Add", func() { s.Add(1, 2) })
	mustPanic("ApplyBatch", func() { s.ApplyBatch([]graph.Update{{U: 1, V: 2}}) })
	mustPanic("Snapshot", func() { s.Snapshot() })
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{M: 0, C: 4},
		{M: 2, C: 0},
		{M: core.MaxM + 1, C: 4},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}
