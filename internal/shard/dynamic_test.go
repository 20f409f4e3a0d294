package shard_test

import (
	"reflect"
	"sync"
	"testing"

	"rept/internal/core"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/shard"
	"rept/internal/stream"
)

// dynStream builds a deterministic churn schedule over a generated base
// graph, shared by the fully-dynamic shard tests.
func dynStream(t *testing.T, seed uint64) []graph.Update {
	t.Helper()
	base := gen.Shuffle(gen.HolmeKim(250, 4, 0.4, 19), seed)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: seed})
	if err := stream.ValidateWellFormed(ups); err != nil {
		t.Fatal(err)
	}
	return ups
}

// TestFullyDynamicShardedMatchesEngines: a fully-dynamic Sharded fed a
// churn stream must produce exactly the estimate of hand-driven core
// engines built from its own shard configs and merged with MergeGroups —
// the FD extension of the shard determinism contract.
func TestFullyDynamicShardedMatchesEngines(t *testing.T) {
	ups := dynStream(t, 3)
	cfg := shard.Config{M: 4, C: 14, Shards: 2, Seed: 5, TrackLocal: true, FullyDynamic: true, TrackDegrees: true}

	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ApplyBatch(ups)
	got := s.Snapshot()

	var aggs []*core.Aggregates
	for _, sc := range cfg.ShardConfigs() {
		eng, err := core.NewEngine(sc)
		if err != nil {
			t.Fatal(err)
		}
		eng.ApplyAll(ups)
		aggs = append(aggs, eng.Aggregates())
		eng.Close()
	}
	merged, err := core.MergeGroups(aggs...)
	if err != nil {
		t.Fatal(err)
	}
	want := merged.Estimate()
	if got.Global != want.Global || got.EtaHat != want.EtaHat {
		t.Errorf("sharded FD estimate = %+v, hand-merged engines = %+v", got, want)
	}
	if !reflect.DeepEqual(got.Local, want.Local) {
		t.Error("sharded FD local estimates diverge from hand-merged engines")
	}

	var dels uint64
	for _, up := range ups {
		if up.Del {
			dels++
		}
	}
	if s.Deleted() != dels {
		t.Errorf("Deleted = %d, want %d", s.Deleted(), dels)
	}
	if s.Processed() != uint64(len(ups)) {
		t.Errorf("Processed = %d, want %d events", s.Processed(), len(ups))
	}

	// The barrier degree table must describe the NET live graph.
	live := exper.LiveEdgesOf(ups)
	wantDeg := make(map[graph.NodeID]uint32)
	for _, e := range live {
		wantDeg[e.U]++
		wantDeg[e.V]++
	}
	gotDeg := s.Observe(false).Degrees.Map()
	if !reflect.DeepEqual(gotDeg, wantDeg) {
		t.Errorf("net degree table has %d nodes, exact live graph %d (or entries differ)", len(gotDeg), len(wantDeg))
	}
}

// TestFullyDynamicConcurrentDisjoint (-race): concurrent producers each
// streaming a well-formed churn schedule over DISJOINT node ranges. The
// interleaving is nondeterministic, but signed counters over disjoint
// edge sets never interact, so the final estimate must equal a
// single-threaded feed of any concatenation.
func TestFullyDynamicConcurrentDisjoint(t *testing.T) {
	const producers = 4
	cfg := shard.Config{M: 3, C: 9, Shards: 3, Seed: 12, TrackLocal: true, FullyDynamic: true}

	schedules := make([][]graph.Update, producers)
	for p := range schedules {
		base := gen.Shuffle(gen.HolmeKim(120, 4, 0.4, uint64(50+p)), uint64(p))
		offset := graph.NodeID(p * 1000)
		for i := range base {
			base[i].U += offset
			base[i].V += offset
		}
		schedules[p] = exper.DynStream(base, exper.DynOptions{Pattern: exper.Churn, DeleteFrac: 0.3, Seed: uint64(p + 1)})
	}

	conc, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	var wg sync.WaitGroup
	for _, sched := range schedules {
		wg.Add(1)
		go func(ups []graph.Update) {
			defer wg.Done()
			// Small bodies exercise batch boundaries under contention.
			for i := 0; i < len(ups); i += 97 {
				end := min(i+97, len(ups))
				conc.ApplyBatch(ups[i:end])
			}
		}(sched)
	}
	wg.Wait()
	got := conc.Snapshot()

	seq, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	for _, sched := range schedules {
		seq.ApplyBatch(sched)
	}
	want := seq.Snapshot()

	if got.Global != want.Global {
		t.Errorf("concurrent FD ingest Global = %v, sequential = %v", got.Global, want.Global)
	}
	if !reflect.DeepEqual(got.Local, want.Local) {
		t.Error("concurrent FD ingest local estimates diverge from sequential")
	}
}

// TestShardedDeleteRequiresFullyDynamic: the coordinator rejects
// deletions (per-edge and bulk) unless configured for them, before any
// state is touched.
func TestShardedDeleteRequiresFullyDynamic(t *testing.T) {
	s, err := shard.New(shard.Config{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Add(1, 2)
	for name, call := range map[string]func(){
		"Delete":     func() { s.Delete(1, 2) },
		"ApplyBatch": func() { s.ApplyBatch([]graph.Update{{U: 1, V: 2, Del: true}}) },
	} {
		func() {
			defer func() {
				if r := recover(); r != core.ErrNotDynamic {
					t.Errorf("%s: recovered %v, want ErrNotDynamic", name, r)
				}
			}()
			call()
		}()
	}
	if s.Processed() != 1 || s.Deleted() != 0 {
		t.Errorf("tallies mutated by rejected deletes: processed=%d deleted=%d", s.Processed(), s.Deleted())
	}
}
