package core

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"rept/internal/graph"
)

// tableMap exports a class-sum table as a map (nil for a nil table).
func tableMap(t *graph.NodeTable[int64]) map[graph.NodeID]int64 {
	if t == nil {
		return nil
	}
	out := make(map[graph.NodeID]int64, t.Len())
	t.Each(func(v graph.NodeID, x int64) { out[v] = x })
	return out
}

// tableOf builds a class-sum table from a map.
func tableOf(m map[graph.NodeID]int64) *graph.NodeTable[int64] {
	t := &graph.NodeTable[int64]{}
	for v, x := range m {
		t.Add(v, x)
	}
	return t
}

// sameAggregates compares two Aggregates by value. A class-sum table's
// slot layout depends on its insertion history (a restored engine rebuilds
// its tables from maps), so the tables compare by content.
func sameAggregates(a, b *Aggregates) bool {
	for _, p := range [][2]*graph.NodeTable[int64]{{a.TauV1, b.TauV1}, {a.TauV2, b.TauV2}, {a.EtaV, b.EtaV}} {
		if !reflect.DeepEqual(tableMap(p[0]), tableMap(p[1])) {
			return false
		}
	}
	x, y := *a, *b
	x.TauV1, x.TauV2, x.EtaV = nil, nil, nil
	y.TauV1, y.TauV2, y.EtaV = nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// checkClassSums requires the engine's class-sum tables, keys included,
// to equal its per-processor maps summed by class, and Aggregates to
// report exactly those tables.
func checkClassSums(t *testing.T, step string, e *Engine) {
	t.Helper()
	want1 := map[graph.NodeID]int64{}
	want2 := map[graph.NodeID]int64{}
	wantEta := map[graph.NodeID]int64{}
	for i, p := range e.procs {
		dst := want1
		if e.lay.isPartialProc(i) {
			dst = want2
		}
		for v, x := range p.tauV {
			dst[v] += x
		}
		for v, x := range p.etaV {
			wantEta[v] += x
		}
	}
	if e.etaV == nil {
		wantEta = nil
	}
	agg := e.Aggregates()
	for _, c := range []struct {
		name      string
		live, agg *graph.NodeTable[int64]
		want      map[graph.NodeID]int64
	}{
		{"TauV1", e.tauV1, agg.TauV1, want1},
		{"TauV2", e.tauV2, agg.TauV2, want2},
		{"EtaV", e.etaV, agg.EtaV, wantEta},
	} {
		if got := tableMap(c.live); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: %s class table (%d keys) != per-processor maps summed by class (%d keys)", step, c.name, len(got), len(c.want))
		}
		if got := tableMap(c.agg); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: Aggregates.%s (%d keys) != per-processor maps summed by class (%d keys)", step, c.name, len(got), len(c.want))
		}
	}
}

// TestClassSumsMatchProcessorMaps drives a seeded schedule of inserts,
// deletes, re-inserts, self-loops, Downsample, and WriteSnapshot followed
// by a resume, and after every step requires the class-sum tables to
// equal the per-processor maps summed by class — the invariant that lets
// Aggregates copy the tables instead of re-summing the maps.
func TestClassSumsMatchProcessorMaps(t *testing.T) {
	for _, cfg := range []Config{
		{M: 3, C: 7, Seed: 4, TrackLocal: true, FullyDynamic: true},                 // full + partial groups, η forced
		{M: 4, C: 8, Seed: 5, TrackLocal: true, FullyDynamic: true},                 // full groups only
		{M: 5, C: 3, Seed: 6, TrackLocal: true, FullyDynamic: true},                 // one partial group
		{M: 2, C: 4, Seed: 7, TrackLocal: true, TrackEta: true, FullyDynamic: true}, // η tracked on request
	} {
		rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 99))
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := map[graph.Edge]bool{}
		var liveList, gone []graph.Edge
		removeLive := func(j int) graph.Edge {
			ed := liveList[j]
			liveList[j] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, ed)
			return ed
		}
		for step := 0; step < 700; step++ {
			var what string
			switch r := rng.IntN(100); {
			case r < 55:
				ed := graph.Edge{U: graph.NodeID(rng.IntN(30)), V: graph.NodeID(rng.IntN(30))}.Canonical()
				if ed.U == ed.V || live[ed] {
					continue
				}
				e.Add(ed.U, ed.V)
				live[ed] = true
				liveList = append(liveList, ed)
				what = "insert"
			case r < 80:
				if len(liveList) == 0 {
					continue
				}
				ed := removeLive(rng.IntN(len(liveList)))
				e.Delete(ed.U, ed.V)
				gone = append(gone, ed)
				what = "delete"
			case r < 92:
				if len(gone) == 0 {
					continue
				}
				ed := gone[rng.IntN(len(gone))]
				if live[ed] {
					continue
				}
				e.Add(ed.U, ed.V)
				live[ed] = true
				liveList = append(liveList, ed)
				what = "re-insert"
			case r < 95:
				u := graph.NodeID(rng.IntN(30))
				e.Add(u, u)
				e.Delete(u, u)
				what = "self-loop"
			case r < 97:
				if e.trackEta || e.SampleShift() >= 3 {
					continue
				}
				if err := e.Downsample(1); err != nil {
					t.Fatal(err)
				}
				what = "downsample"
			default:
				var buf bytes.Buffer
				if err := e.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				e.Close()
				if e, err = ResumeEngine(cfg, &buf); err != nil {
					t.Fatal(err)
				}
				what = "resume"
			}
			checkClassSums(t, what, e)
		}
		e.Close()
	}
}
