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

// classSumsDiff returns the name of the first class-sum table on which a
// and b differ by content, keys included, or "" when all three agree. A
// table's slot layout depends on its insertion history (a restored engine
// inserts in snapshot order), so tables compare by content, never by
// layout.
func classSumsDiff(a, b *Aggregates) string {
	for _, c := range []struct {
		name string
		x, y *graph.NodeTable[int64]
	}{{"TauV1", a.TauV1, b.TauV1}, {"TauV2", a.TauV2, b.TauV2}, {"EtaV", a.EtaV, b.EtaV}} {
		if !reflect.DeepEqual(tableMap(c.x), tableMap(c.y)) {
			return c.name
		}
	}
	return ""
}

// sameAggregates compares two Aggregates by value, the class sums by
// content.
func sameAggregates(a, b *Aggregates) bool {
	if classSumsDiff(a, b) != "" {
		return false
	}
	x, y := *a, *b
	x.TauV1, x.TauV2, x.EtaV = nil, nil, nil
	y.TauV1, y.TauV2, y.EtaV = nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// TestClassSumsMatchNeverResumedTwin drives a seeded schedule of inserts,
// deletes, re-inserts, self-loops, Downsample, and WriteSnapshot followed
// by a resume through one engine, and the same events, Downsample
// included, through a twin that never resumes. After every step the two
// must hold the same class sums by content, keys included, and Aggregates
// must report exactly the engine's live tables; after every Downsample
// the two must encode to the same bytes. The class sums are the engines'
// only per-node state, so this pins that a snapshot carries them whole
// and that Downsample's rounding depends on neither table layout nor
// history.
func TestClassSumsMatchNeverResumedTwin(t *testing.T) {
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
		twin, err := NewEngine(cfg)
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
		apply := func(up graph.Update) {
			e.Apply(up)
			twin.Apply(up)
		}
		resumed, resumedDownsamples := false, 0
		for step := 0; step < 700; step++ {
			var what string
			switch r := rng.IntN(100); {
			case r < 55:
				ed := graph.Edge{U: graph.NodeID(rng.IntN(30)), V: graph.NodeID(rng.IntN(30))}.Canonical()
				if ed.U == ed.V || live[ed] {
					continue
				}
				apply(graph.Update{U: ed.U, V: ed.V})
				live[ed] = true
				liveList = append(liveList, ed)
				what = "insert"
			case r < 80:
				if len(liveList) == 0 {
					continue
				}
				ed := removeLive(rng.IntN(len(liveList)))
				apply(graph.Update{U: ed.U, V: ed.V, Del: true})
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
				apply(graph.Update{U: ed.U, V: ed.V})
				live[ed] = true
				liveList = append(liveList, ed)
				what = "re-insert"
			case r < 95:
				u := graph.NodeID(rng.IntN(30))
				apply(graph.Update{U: u, V: u})
				apply(graph.Update{U: u, V: u, Del: true})
				what = "self-loop"
			case r < 97:
				if e.trackEta || e.SampleShift() >= 3 {
					continue
				}
				for _, x := range []*Engine{e, twin} {
					if err := x.Downsample(1); err != nil {
						t.Fatal(err)
					}
				}
				if resumed {
					resumedDownsamples++
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
				resumed = true
				what = "resume"
			}
			agg := e.Aggregates()
			if name := classSumsDiff(agg, twin.Aggregates()); name != "" {
				t.Fatalf("%+v step %d (%s): %s differs from the never-resumed twin's", cfg, step, what, name)
			}
			own := &Aggregates{TauV1: e.tauV1, TauV2: e.tauV2, EtaV: e.etaV}
			if name := classSumsDiff(agg, own); name != "" {
				t.Fatalf("%+v step %d (%s): Aggregates.%s differs from the engine's table", cfg, step, what, name)
			}
			if what == "downsample" {
				var a, b bytes.Buffer
				if err := e.WriteSnapshot(&a); err != nil {
					t.Fatal(err)
				}
				if err := twin.WriteSnapshot(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("%+v step %d: downsampled engine encodes differently from its never-resumed twin", cfg, step)
				}
			}
		}
		if !e.trackEta && resumedDownsamples == 0 {
			t.Fatalf("%+v: schedule never downsampled a resumed engine", cfg)
		}
		e.Close()
		twin.Close()
	}
}
