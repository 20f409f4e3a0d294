package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rept/internal/graph"
)

// TestCtabMatchesMap cross-checks the open-addressing counter table
// against a plain map under a random churn of bumps, loads, and deletes —
// including enough delete/re-insert cycles to exercise backward-shift
// deletion and growth.
func TestCtabMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	ct := &ctab{}
	naive := make(map[uint64]int32)
	keys := make([]uint64, 200)
	for i := range keys {
		// Real edge keys (u < v, never 0 or ^0).
		keys[i] = graph.Key(graph.NodeID(rng.IntN(40)), graph.NodeID(40+rng.IntN(40)))
	}
	for i := 0; i < 50000; i++ {
		k := keys[rng.IntN(len(keys))]
		switch rng.IntN(6) {
		case 0:
			ct.del(k)
			delete(naive, k)
		case 1:
			v := int32(rng.IntN(100) - 50)
			ct.load(map[uint64]int32{k: v})
			naive[k] = v
		default:
			delta := int32(1)
			if rng.IntN(2) == 0 {
				delta = -1
			}
			old, cur := ct.bump(k, delta)
			if old != naive[k] {
				t.Fatalf("op %d: bump old = %d, want %d", i, old, naive[k])
			}
			naive[k] = naive[k] + delta
			if cur != naive[k] {
				t.Fatalf("op %d: bump cur = %d, want %d", i, cur, naive[k])
			}
		}
		if ct.len() != len(naive) {
			t.Fatalf("op %d: len = %d, want %d", i, ct.len(), len(naive))
		}
	}
	for k, v := range naive {
		if got := ct.get(k); got != v {
			t.Fatalf("get(%#x) = %d, want %d", k, got, v)
		}
	}
	got := ct.toMap()
	if len(got) != len(naive) {
		t.Fatalf("toMap has %d entries, want %d", len(got), len(naive))
	}
	for k, v := range naive {
		if got[k] != v {
			t.Fatalf("toMap[%#x] = %d, want %d", k, got[k], v)
		}
	}
	if ct.sat != 0 {
		t.Fatalf("sat = %d on a boundary-free workload, want 0", ct.sat)
	}
}

// TestCtabSaturation: per-edge closing counters clamp at the int32
// boundaries instead of wrapping, and every clamp is counted. This is the
// overflow guard for adversarially hot edges.
func TestCtabSaturation(t *testing.T) {
	k := graph.Key(1, 2)
	ct := &ctab{}
	ct.load(map[uint64]int32{k: math.MaxInt32 - 1})
	if old, cur := ct.bump(k, 1); old != math.MaxInt32-1 || cur != math.MaxInt32 {
		t.Fatalf("bump to max = (%d, %d)", old, cur)
	}
	if ct.sat != 0 {
		t.Fatalf("sat = %d before any clamp", ct.sat)
	}
	// One past the top: clamp, count.
	if _, cur := ct.bump(k, 1); cur != math.MaxInt32 {
		t.Fatalf("bump past max stored %d, want clamp at MaxInt32", cur)
	}
	if ct.sat != 1 {
		t.Fatalf("sat = %d after clamp, want 1", ct.sat)
	}
	// And the bottom boundary.
	ct.load(map[uint64]int32{k: math.MinInt32})
	if _, cur := ct.bump(k, -1); cur != math.MinInt32 {
		t.Fatalf("bump past min stored %d, want clamp at MinInt32", cur)
	}
	if ct.sat != 2 {
		t.Fatalf("sat = %d after min clamp, want 2", ct.sat)
	}
	// A fresh entry starts at 0 whatever its key held before.
	ct.del(k)
	ct.insert(k)
	if got := ct.get(k); got != 0 {
		t.Fatalf("insert stored %d, want 0", got)
	}
}

// TestEngineEtaSaturations: the engine surfaces clamp events from its
// processors' counter tables (zero everywhere on a normal stream).
func TestEngineEtaSaturations(t *testing.T) {
	e, err := NewEngine(Config{M: 2, C: 3, Seed: 1, TrackEta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := graph.NodeID(1); i < 40; i++ {
		e.Add(0, i)
		e.Add(i, i+1)
	}
	if got := e.EtaSaturations(); got != 0 {
		t.Fatalf("EtaSaturations = %d on a tiny stream, want 0", got)
	}
	// Reach in and force a processor counter to the boundary, then feed
	// an event that closes a wedge through it.
	p := e.procs[0]
	if p.tcnt == nil {
		t.Fatal("proc 0 has no counter table despite TrackEta")
	}
	p.tcnt.sat = 41
	if got := e.EtaSaturations(); got != 41 {
		t.Fatalf("EtaSaturations = %d, want 41", got)
	}
}

// TestShardedEtaSaturationsPlumbing is covered at the shard and HTTP
// layers via Observation.EtaSaturations and /stats (see
// cmd/reptserve.TestStatsEndpoint); here we only pin the engine-level
// zero baseline for every tracked configuration.
func TestEngineEtaSaturationsZeroWithoutEta(t *testing.T) {
	e, err := NewEngine(Config{M: 4, C: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Add(1, 2)
	if got := e.EtaSaturations(); got != 0 {
		t.Fatalf("EtaSaturations = %d without η tracking, want 0", got)
	}
}

// TestRestoreRejectsTcntWithoutEta: a crafted snapshot that carries
// per-edge counters for a configuration whose effective trackEta is
// false must be rejected as corrupt (the presence check), never reach
// the nil counter table, and never panic.
func TestRestoreRejectsTcntWithoutEta(t *testing.T) {
	cfg := Config{M: 4, C: 2, Seed: 3} // C < M, no eta needed or forced
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Add(1, 2)
	st := e.State()
	e.Close()
	if st.Procs[0].Tcnt != nil {
		t.Fatal("no-eta engine exported counter tables")
	}
	st.Procs[0].Tcnt = map[uint64]int32{graph.Key(1, 2): 1} // crafted
	r, err := RestoreEngine(cfg, st)
	if err == nil {
		r.Close()
		t.Fatal("RestoreEngine accepted counters for a no-eta config")
	}
}

// TestCtabChurnStaysCompact: deleting and re-inserting the same working
// set must not grow the table (deletion shifts entries back, leaving no
// dead slots), the property that keeps fully-dynamic steady state
// allocation-free.
func TestCtabChurnStaysCompact(t *testing.T) {
	ct := &ctab{}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = graph.Key(graph.NodeID(i), graph.NodeID(100+i))
		ct.load(map[uint64]int32{keys[i]: int32(i)})
	}
	before := ct.tab.Bytes()
	for round := 0; round < 1000; round++ {
		for _, k := range keys {
			ct.del(k)
		}
		for i, k := range keys {
			ct.load(map[uint64]int32{k: int32(i)})
		}
	}
	if ct.tab.Bytes() != before {
		t.Fatalf("table grew from %d to %d bytes under pure churn", before, ct.tab.Bytes())
	}
	for i, k := range keys {
		if got := ct.get(k); got != int32(i) {
			t.Fatalf("get(%#x) = %d after churn, want %d", k, got, i)
		}
	}
}
