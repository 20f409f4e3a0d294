package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
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

// countersBytes is Footprint's counters part recomputed field by field:
// the class sums, their delta, and every per-edge counter table.
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

// TestEngineDeltaSumsToFullReport: the first TakeDelta hands over whole
// class sums, and every later one a delta which, added onto the class
// sums the consumer holds, gives the engine's full class sums by content
// — entries that netted to zero included — through inserts, deletes that
// undo them and re-inserts, on a c ≤ m layout, a c = c₁m one and a
// c = c₁m + c₂ one (η_v in the delta).
func TestEngineDeltaSumsToFullReport(t *testing.T) {
	for _, lay := range []struct{ m, c int }{{8, 6}, {4, 12}, {4, 10}} {
		cfg := Config{M: lay.m, C: lay.c, Seed: 5, TrackLocal: true, FullyDynamic: true}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		edges := gen.Shuffle(gen.HolmeKim(800, 4, 0.5, 3), 4)
		e.ApplyAll(graph.Inserts(edges[:1000]))
		held, delta := e.TakeDelta()
		if delta {
			t.Fatal("the first TakeDelta handed over a delta")
		}
		rng := rand.New(rand.NewPCG(1, uint64(lay.c)))
		live := append([]graph.Edge(nil), edges[:1000]...)
		next := 1000
		zeros := 0
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
			d, delta := e.TakeDelta()
			if !delta {
				t.Fatalf("m=%d c=%d epoch %d: TakeDelta handed over whole class sums", lay.m, lay.c, epoch)
			}
			d.TauV1.Each(func(_ graph.NodeID, x int64) {
				if x == 0 {
					zeros++
				}
			})
			held = sumsOnto(held, d)
			if diff := classSumsDiff(held, e.Aggregates()); diff != "" {
				t.Fatalf("m=%d c=%d epoch %d: %s of held sums plus delta differs from the full report", lay.m, lay.c, epoch, diff)
			}
		}
		if (lay.c > lay.m && lay.c%lay.m != 0) != (held.EtaV != nil) {
			t.Fatalf("m=%d c=%d: η_v class sums present = %v", lay.m, lay.c, held.EtaV != nil)
		}
		if lay.c%lay.m == 0 && zeros == 0 {
			t.Fatalf("m=%d c=%d: no delta entry netted to zero; the schedule missed its case", lay.m, lay.c)
		}
		e.Close()
	}
}

// TestEngineDeltaOnlyWhenObserved: an engine no TakeDelta reached
// records no delta and its footprint counts no bytes for one, and the
// other reports leave that so; the first TakeDelta hands over whole class
// sums and starts the delta, which then outlives a batch touching most
// nodes without outgrowing the class sums; StopDelta ends it and
// releases its bytes, so the footprint's counters cover the class sums
// alone and the next TakeDelta hands over whole class sums again; and
// Downsample ends it the same way.
func TestEngineDeltaOnlyWhenObserved(t *testing.T) {
	cfg := Config{M: 4, C: 8, Seed: 2, TrackLocal: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := gen.Shuffle(gen.HolmeKim(6000, 4, 0.5, 9), 2)
	half := len(edges) / 2
	e.ApplyBatch(graph.Inserts(edges[:half/2]))
	e.ProcCounters()
	e.NodeCounters(edges[0].U)
	e.Aggregates()
	e.ApplyBatch(graph.Inserts(edges[half/2 : half]))
	if e.dTauV1 != nil || e.dTauV2 != nil {
		t.Fatal("an engine nothing observed records a delta")
	}
	if got, want := e.Footprint().Counters, countersBytes(e); got != want || e.dTauV1.Bytes() != 0 {
		t.Fatalf("counters footprint %d B, recomputed %d B", got, want)
	}
	classSumBytes := func() int64 { return e.tauV1.Bytes() + e.tauV2.Bytes() + e.etaV.Bytes() }
	takeWhole := func(what string) {
		t.Helper()
		agg, delta := e.TakeDelta()
		if delta {
			t.Fatalf("%s: TakeDelta handed over a delta", what)
		}
		if diff := classSumsDiff(agg, e.Aggregates()); diff != "" {
			t.Fatalf("%s: TakeDelta's whole %s differs from the full report", what, diff)
		}
	}
	takeWhole("first TakeDelta")

	// A small batch and one touching most nodes both keep the delta, and
	// it never holds more entries than the class sums.
	e.ApplyBatch(graph.Inserts(edges[half : half+20]))
	if e.dTauV1 == nil {
		t.Fatal("a 20-event batch dropped the delta")
	}
	if got, want := e.Footprint().Counters, countersBytes(e); got != want || e.dTauV1.Bytes() == 0 {
		t.Fatalf("counters footprint %d B, recomputed %d B with a delta of %d B", got, want, e.dTauV1.Bytes())
	}
	if _, delta := e.TakeDelta(); !delta {
		t.Fatal("TakeDelta on a recording engine handed over whole class sums")
	}
	e.ApplyBatch(graph.Inserts(edges[half+20:]))
	if d, s := e.dTauV1.Len()+e.dTauV2.Len(), e.tauV1.Len()+e.tauV2.Len(); e.dTauV1 == nil || d > s || 2*d < s {
		t.Fatalf("after a batch touching most nodes the delta holds %d entries, the class sums %d", d, s)
	}

	// StopDelta releases the delta: the counters footprint is the class
	// sums' bytes alone (this layout keeps no per-edge counters).
	e.StopDelta()
	if e.dTauV1 != nil || e.dTauV2 != nil || e.dEtaV != nil {
		t.Fatal("a stopped engine holds a delta")
	}
	if got, want := e.Footprint().Counters, classSumBytes(); got != want || got != countersBytes(e) {
		t.Fatalf("counters footprint %d B after StopDelta, class sums alone %d B", got, want)
	}
	takeWhole("TakeDelta after StopDelta")

	// Downsample rescales every class sum, so it ends the delta too.
	if err := e.Downsample(1); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Footprint().Counters, classSumBytes(); got != want || e.dTauV1 != nil {
		t.Fatalf("counters footprint %d B after Downsample, class sums alone %d B", got, want)
	}
	takeWhole("TakeDelta after Downsample")
}

// TestEngineDeltaShrinksAfterPeak: a delta that grew during a large
// epoch does not keep that capacity. The first small epoch after
// it hands the peak table over and releases it, the next regrows it only
// to its own size, and a run of epochs touching the same entries neither
// grows nor shrinks it again; every handed-over delta still adds up to
// the full report, and the footprint counts the delta throughout.
func TestEngineDeltaShrinksAfterPeak(t *testing.T) {
	e, err := NewEngine(Config{M: 4, C: 8, Seed: 3, TrackLocal: true, FullyDynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := gen.Shuffle(gen.HolmeKim(20_000, 4, 0.5, 5), 6)
	ups := graph.Inserts(edges)
	e.ApplyAll(ups[:40_000])
	held, _ := e.TakeDelta()
	deltaBytes := func() int64 { return e.dTauV1.Bytes() + e.dTauV2.Bytes() }
	take := func(what string) {
		t.Helper()
		d, delta := e.TakeDelta()
		if !delta {
			t.Fatalf("%s: TakeDelta handed over whole class sums", what)
		}
		held = sumsOnto(held, d)
		if diff := classSumsDiff(held, e.Aggregates()); diff != "" {
			t.Fatalf("%s: %s of held sums plus delta differs from the full report", what, diff)
		}
		if got, want := e.Footprint().Counters, countersBytes(e); got != want {
			t.Fatalf("%s: counters footprint %d B, recomputed %d B", what, got, want)
		}
	}

	// One large epoch: batches until the delta holds a fifth as many
	// entries as the class sums.
	next := 40_000
	for 5*(e.dTauV1.Len()+e.dTauV2.Len()) < e.tauV1.Len()+e.tauV2.Len() {
		e.ApplyAll(ups[next : next+100])
		next += 100
	}
	peak := deltaBytes()
	take("peak epoch")
	if deltaBytes() != peak {
		t.Fatalf("handing over the peak epoch's delta moved it from %d to %d B", peak, deltaBytes())
	}
	// Small epochs that each delete and re-insert the same 10 edges, so
	// every one touches the same class-sum entries.
	var churn []graph.Update
	for _, ed := range edges[:10] {
		churn = append(churn, graph.Update{U: ed.U, V: ed.V, Del: true})
	}
	churn = append(churn, ups[:10]...)
	var small []int64
	for epoch := 0; epoch < 8; epoch++ {
		e.ApplyAll(churn)
		take(fmt.Sprintf("small epoch %d", epoch))
		small = append(small, deltaBytes())
	}
	t.Logf("peak delta %d B, then small epochs' deltas %v B", peak, small)
	if small[0] != 0 {
		t.Errorf("the first small epoch kept %d B of the %d B peak delta", small[0], peak)
	}
	for _, b := range small[2:] {
		if b != small[1] || b == 0 || 8*b > peak {
			t.Fatalf("small epochs' delta footprints %v B after a %d B peak: want 0, then one size at most an eighth of the peak", small, peak)
		}
	}
}

// TestEngineReportChoices: ProcCounters carries no class sums,
// NodeCounters one node's entries, and both the full report's counters.
func TestEngineReportChoices(t *testing.T) {
	e, err := NewEngine(Config{M: 4, C: 10, Seed: 6, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddAll(gen.Shuffle(gen.HolmeKim(500, 4, 0.5, 1), 1))
	full := e.Aggregates()
	none := e.ProcCounters()
	if none.TracksLocal() || none.EtaV != nil {
		t.Fatal("ProcCounters carries class sums")
	}
	if !reflect.DeepEqual(none.GlobalEstimate(), full.GlobalEstimate()) {
		t.Fatal("ProcCounters' global estimate differs from the full report's")
	}
	n := 0
	full.EachLocal(func(v graph.NodeID, local float64) {
		if n++; n > 50 {
			return
		}
		one := e.NodeCounters(v)
		if one.TauV1.Len()+one.TauV2.Len()+one.EtaV.Len() > 3 {
			t.Fatalf("NodeCounters(%d) holds other nodes", v)
		}
		if got := one.LocalOf(v); got != local {
			t.Fatalf("NodeCounters(%d).LocalOf = %v, want %v", v, got, local)
		}
	})
	if one := e.NodeCounters(1 << 30); one.LocalOf(1<<30) != 0 || one.TauV1.Len() != 0 {
		t.Fatal("NodeCounters for an unseen node is not empty")
	}
}
