package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/mem"
)

// sumsOnto returns base's class sums plus d's, by content, as the
// epoch-view publisher builds them.
func sumsOnto(base, d *Aggregates) *Aggregates {
	out := &Aggregates{
		TauV1: graph.SumTables(base.TauV1, d.TauV1),
		TauV2: graph.SumTables(base.TauV2, d.TauV2),
	}
	if d.EtaV != nil {
		out.EtaV = graph.SumTables(base.EtaV, d.EtaV)
	}
	return out
}

// countersBytes is the ledger's counters component recomputed from
// capacities: the class sums, their delta, and every per-edge counter
// table.
func countersBytes(e *Engine) int64 {
	n := e.tauV1.Bytes() + e.tauV2.Bytes() + e.etaV.Bytes() +
		e.dTauV1.Bytes() + e.dTauV2.Bytes() + e.dEtaV.Bytes()
	for _, p := range e.procs {
		if p.tcnt != nil {
			n += p.tcnt.tab.Bytes()
		}
	}
	return n
}

// TestEngineDeltaSumsToFullReport: after a SumsRestart report, each
// SumsDelta report added onto the class sums the consumer holds gives
// the engine's full class sums by content — entries that netted to zero
// included — through inserts, deletes that undo them and re-inserts, on
// a c ≤ m layout, a c = c₁m one and a c = c₁m + c₂ one (η_v in the
// delta).
func TestEngineDeltaSumsToFullReport(t *testing.T) {
	for _, lay := range []struct{ m, c int }{{8, 6}, {4, 12}, {4, 10}} {
		cfg := Config{M: lay.m, C: lay.c, Seed: 5, TrackLocal: true, FullyDynamic: true}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		edges := gen.Shuffle(gen.HolmeKim(800, 4, 0.5, 3), 4)
		e.ApplyAll(graph.Inserts(edges[:1000]))
		held, ok := e.Report(SumsRestart, 0)
		if !ok {
			t.Fatal("SumsRestart report failed")
		}
		rng := rand.New(rand.NewPCG(1, uint64(lay.c)))
		live := append([]graph.Edge(nil), edges[:1000]...)
		next := 1000
		deltas, zeros := 0, 0
		for epoch := 0; epoch < 30; epoch++ {
			var ups []graph.Update
			for len(ups) < 60 {
				switch {
				case rng.IntN(3) == 0 && len(live) > 0:
					j := rng.IntN(len(live))
					ups = append(ups, graph.Update{U: live[j].U, V: live[j].V, Del: true})
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				case next < len(edges):
					ups = append(ups, graph.Update{U: edges[next].U, V: edges[next].V})
					live = append(live, edges[next])
					next++
				}
			}
			e.ApplyAll(ups)
			if d, ok := e.Report(SumsDelta, 0); ok {
				deltas++
				d.TauV1.Each(func(_ graph.NodeID, x int64) {
					if x == 0 {
						zeros++
					}
				})
				held = sumsOnto(held, d)
			} else {
				// The batch outgrew the cap: restart, as a publisher does.
				held, _ = e.Report(SumsRestart, 0)
			}
			if diff := classSumsDiff(held, e.Aggregates()); diff != "" {
				t.Fatalf("m=%d c=%d epoch %d: %s of held sums plus delta differs from the full report", lay.m, lay.c, epoch, diff)
			}
		}
		if (lay.c > lay.m && lay.c%lay.m != 0) != (held.EtaV != nil) {
			t.Fatalf("m=%d c=%d: η_v class sums present = %v", lay.m, lay.c, held.EtaV != nil)
		}
		if deltas < 20 || lay.c%lay.m == 0 && zeros == 0 {
			t.Fatalf("m=%d c=%d: %d of 30 epochs took a delta, %d delta entries netted to zero; the schedule missed its cases", lay.m, lay.c, deltas, zeros)
		}
		e.Close()
	}
}

// TestEngineDeltaOnlyWhenObserved: an engine no SumsRestart report
// reached records no delta and charges the ledger nothing for one, and
// the other report choices leave that so; a delta past the cap is
// dropped, with its charge, at the end of the batch that outgrew it, so
// the next SumsDelta report fails and the consumer must restart; and
// Downsample drops it the same way.
func TestEngineDeltaOnlyWhenObserved(t *testing.T) {
	ac := mem.New()
	cfg := Config{M: 4, C: 8, Seed: 2, TrackLocal: true, Mem: ac}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := gen.Shuffle(gen.HolmeKim(6000, 4, 0.5, 9), 2)
	half := len(edges) / 2
	e.ApplyBatch(graph.Inserts(edges[:half/2]))
	for _, s := range []Sums{SumsNone, SumsNode, SumsFull} {
		if _, ok := e.Report(s, edges[0].U); !ok {
			t.Fatalf("report %d failed", s)
		}
	}
	if _, ok := e.Report(SumsDelta, 0); ok {
		t.Fatal("SumsDelta succeeded on an engine nothing restarted")
	}
	e.ApplyBatch(graph.Inserts(edges[half/2 : half]))
	if e.dTauV1 != nil || e.dTauV2 != nil {
		t.Fatal("an engine nothing observed records a delta")
	}
	if got, want := ac.Bytes(mem.CompCounters), countersBytes(e); got != want || e.dTauV1.Bytes() != 0 {
		t.Fatalf("counters ledger %d B, footprint %d B", got, want)
	}

	// A small batch keeps the delta; a batch touching more than a quarter
	// of the class sums drops it and credits the ledger.
	e.Report(SumsRestart, 0)
	e.ApplyBatch(graph.Inserts(edges[half : half+20]))
	if e.dTauV1 == nil {
		t.Fatal("a 20-event batch dropped the delta")
	}
	if got, want := ac.Bytes(mem.CompCounters), countersBytes(e); got != want || e.dTauV1.Bytes() == 0 {
		t.Fatalf("counters ledger %d B, footprint %d B with a delta of %d B", got, want, e.dTauV1.Bytes())
	}
	if _, ok := e.Report(SumsDelta, 0); !ok {
		t.Fatal("SumsDelta failed on a restarted engine")
	}
	e.ApplyBatch(graph.Inserts(edges[half+20:]))
	if e.dTauV1 != nil {
		t.Fatalf("delta kept after a batch touching most nodes (class sums %d entries)", e.tauV1.Len()+e.tauV2.Len())
	}
	if got, want := ac.Bytes(mem.CompCounters), countersBytes(e); got != want {
		t.Fatalf("counters ledger %d B after the cap, footprint %d B", got, want)
	}
	if d, ok := e.Report(SumsDelta, 0); ok || d.TauV1 != nil || d.TauV2 != nil {
		t.Fatal("SumsDelta after the cap reported a delta")
	}

	// Downsample rescales every class sum, so it drops the delta too.
	e.Report(SumsRestart, 0)
	if err := e.Downsample(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Report(SumsDelta, 0); ok {
		t.Fatal("SumsDelta after Downsample reported a delta")
	}
	if got, want := ac.Bytes(mem.CompCounters), countersBytes(e); got != want {
		t.Fatalf("counters ledger %d B after Downsample, footprint %d B", got, want)
	}
}

// TestEngineReportChoices: SumsNone carries no class sums, SumsNode one
// node's entries, and both the full report's counters.
func TestEngineReportChoices(t *testing.T) {
	e, err := NewEngine(Config{M: 4, C: 10, Seed: 6, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddAll(gen.Shuffle(gen.HolmeKim(500, 4, 0.5, 1), 1))
	full := e.Aggregates()
	none, _ := e.Report(SumsNone, 0)
	if none.TracksLocal() || none.EtaV != nil {
		t.Fatal("SumsNone report carries class sums")
	}
	if !reflect.DeepEqual(none.GlobalEstimate(), full.GlobalEstimate()) {
		t.Fatal("SumsNone report's global estimate differs from the full report's")
	}
	n := 0
	full.EachLocal(func(v graph.NodeID, local float64) {
		if n++; n > 50 {
			return
		}
		one, _ := e.Report(SumsNode, v)
		if one.TauV1.Len()+one.TauV2.Len()+one.EtaV.Len() > 3 {
			t.Fatalf("SumsNode report for %d holds other nodes", v)
		}
		if got := one.LocalOf(v); got != local {
			t.Fatalf("SumsNode LocalOf(%d) = %v, want %v", v, got, local)
		}
	})
	if one, _ := e.Report(SumsNode, 1<<30); one.LocalOf(1<<30) != 0 || one.TauV1.Len() != 0 {
		t.Fatal("SumsNode report for an unseen node is not empty")
	}
}
