package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/snapshot"
)

// refEngine is the all-processor reference walk the engine's
// presence-mask walk is checked against: every processor visits every
// event, and d_o is counted per processor instead of derived. It drives
// the wrapped engine's processors directly, placing and removing nodes
// through the engine's dictionary, so an engine used as a reference must
// be fed through apply only.
type refEngine struct {
	*Engine
	do []uint64
}

func newRefEngine(t testing.TB, cfg Config) *refEngine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(%+v): %v", cfg, err)
	}
	return &refEngine{Engine: e, do: make([]uint64, cfg.C)}
}

func (r *refEngine) apply(ups ...graph.Update) {
	for _, up := range ups {
		if up.U == up.V {
			r.selfLoops++
			continue
		}
		r.processed++
		if up.Del {
			r.deleted++
		}
		key := graph.Key(up.U, up.V)
		u := endpoint{node: up.U, id: r.dict.index.Get(up.U)}
		v := endpoint{node: up.V, id: r.dict.index.Get(up.V)}
		for i, p := range r.procs {
			col := r.fam[p.group].Color(key)
			if !up.Del {
				p.processEdge(&r.dict, &u, &v, key, col)
				continue
			}
			if col != p.color || !p.keeps(key) {
				r.do[i]++
			}
			p.deleteEdge(&r.dict, &u, &v, key, col)
		}
	}
}

// state is the reference's full state carrying its counted d_o.
func (r *refEngine) state() *snapshot.EngineState {
	st := r.State()
	for i := range st.Procs {
		st.Procs[i].Do = r.do[i]
	}
	return st
}

// sameAsRef fails t unless eng's aggregates and full state — stream
// tallies, sampled sets, every counter, and the derived d_o — equal the
// reference's.
func sameAsRef(t *testing.T, what string, ref *refEngine, eng *Engine) {
	t.Helper()
	if !sameAggregates(ref.Aggregates(), eng.Aggregates()) {
		t.Errorf("%s: aggregates diverge from the all-processor walk", what)
	}
	want, got := ref.state(), eng.State()
	for i := range want.Procs {
		w, g := &want.Procs[i], &got.Procs[i]
		if w.Di != g.Di || w.Do != g.Do || w.Phantom != g.Phantom {
			t.Errorf("%s: processor %d (d_i, d_o, phantom) = (%d, %d, %d), reference (%d, %d, %d)",
				what, i, g.Di, g.Do, g.Phantom, w.Di, w.Do, w.Phantom)
		}
	}
	if !bytes.Equal(encodeState(t, want), encodeState(t, got)) {
		t.Errorf("%s: engine state diverges from the all-processor walk", what)
	}
}

// encodeState renders st in the canonical snapshot encoding, which sorts
// every edge set and map, so equal states give equal bytes regardless of
// adjacency layout.
func encodeState(t *testing.T, st *snapshot.EngineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteEngine(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cfgName(c Config) string { return fmt.Sprintf("M=%d C=%d", c.M, c.C) }

// batchStream builds a signed stream with deletions trailing a window
// behind their insertions, so the dictionary sees real removals (nodes
// whose last sampled edge disappears must drop out of the mask), plus
// self-loops and phantom deletions of edges that were never inserted.
func batchStream() []graph.Update {
	edges := gen.Shuffle(gen.HolmeKim(250, 5, 0.4, 17), 7)
	ups := make([]graph.Update, 0, len(edges)+len(edges)/2)
	for i, e := range edges {
		ups = append(ups, graph.Update{U: e.U, V: e.V})
		if i >= 30 && i%3 == 0 {
			d := edges[i-30]
			ups = append(ups, graph.Update{U: d.U, V: d.V, Del: true})
		}
		if i%97 == 0 {
			ups = append(ups, graph.Update{U: e.U, V: e.U})
		}
		if i%41 == 0 {
			ups = append(ups, graph.Update{U: e.U, V: graph.NodeID(1000 + i), Del: true})
		}
	}
	return ups
}

// withIDChurn returns ups with a run of events spliced in at the start of
// feedMixed's batched part, so the run sits inside one walk group for
// every slab length from its own length up: node a's last sampled edge
// is deleted (a leaves and its id is freed), a new node b takes that id,
// an edge arrives at the departed a, then a phantom deletion and a
// self-loop. The two edges that set the run up open the stream. On an
// M = 1 layout every processor stores every edge, so a's leave and the
// reuse of its id are certain, and a group that staged a's old id must
// look it up again before walking the edge at a.
func withIDChurn(ups []graph.Update) []graph.Update {
	const a, w, x, b = 1 << 20, 1<<20 + 1, 1<<20 + 2, 1<<20 + 3
	out := append([]graph.Update{{U: a, V: w}, {U: w, V: x}}, ups...)
	run := []graph.Update{
		{U: a, V: w, Del: true},
		{U: b, V: w},
		{U: a, V: x},
		{U: 1<<20 + 4, V: 1<<20 + 5, Del: true},
		{U: b, V: b},
	}
	return slices.Insert(out, (len(out)+len(run))/3, run...)
}

// feedMixed drives ups through every public ingest entry point: the first
// third one event at a time (Add, Delete, Apply), the rest through
// ApplyBatch in slabs of the given length, so batch and walk-group
// boundaries land mid-window.
func feedMixed(e *Engine, ups []graph.Update, slab int) {
	third := len(ups) / 3
	for i, up := range ups[:third] {
		switch {
		case i%2 == 0:
			e.Apply(up)
		case up.Del:
			e.Delete(up.U, up.V)
		default:
			e.Add(up.U, up.V)
		}
	}
	rest := ups[third:]
	for len(rest) > 0 {
		n := min(slab, len(rest))
		e.ApplyBatch(rest[:n])
		rest = rest[n:]
	}
}

// TestEngineApplyBatchBitIdentical is the presence-mask walk's
// correctness contract: fed through any entry point, the engine must end
// bit-identical to the all-processor reference walk — aggregates, sampled
// sets, every counter, and the derived d_o — with deletions, phantom
// deletions, η bookkeeping, partial groups, and one, two and three mask
// blocks (C = 64, 65, 130, including groups that straddle a block). The
// batches come in slabs shorter than, as long as, and longer than a walk
// group, and the stream carries withIDChurn's run, which an M = 1 layout
// turns into a leave and an id reuse inside one group.
func TestEngineApplyBatchBitIdentical(t *testing.T) {
	ups := withIDChurn(batchStream())
	for _, cfg := range []Config{
		{M: 1, C: 3, Seed: 11, TrackLocal: true, FullyDynamic: true}, // every processor stores every edge
		{M: 3, C: 12, Seed: 11, TrackLocal: true, FullyDynamic: true},
		{M: 4, C: 10, Seed: 11, TrackLocal: true, TrackEta: true, FullyDynamic: true}, // partial group with η
		{M: 2, C: 64, Seed: 11, FullyDynamic: true},                                   // one full mask block
		{M: 2, C: 65, Seed: 11, TrackLocal: true, FullyDynamic: true},                 // two blocks
		{M: 7, C: 130, Seed: 11, TrackLocal: true, FullyDynamic: true},                // three blocks, partial group
		{M: 80, C: 130, Seed: 11, FullyDynamic: true},                                 // groups straddle blocks
	} {
		ref := newRefEngine(t, cfg)
		ref.apply(ups...)
		for _, slab := range []int{1, walkGroup - 1, walkGroup, walkGroup + 1, 97} {
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedMixed(eng, ups, slab)
			what := fmt.Sprintf("cfg %s, slabs of %d", cfgName(cfg), slab)
			sameAsRef(t, what, ref, eng)
			if eng.PairingCounters().PhantomDeletes == 0 {
				t.Errorf("%s: stream produced no phantom deletions", what)
			}
			eng.Close()
		}
		ref.Close()
	}
}

// TestEngineWalkAcrossDownsample: a mid-stream Downsample evicts sampled
// edges wholesale and must leave the dictionary consistent, so the walk
// still matches the reference on the suffix, across mask blocks.
func TestEngineWalkAcrossDownsample(t *testing.T) {
	ups := batchStream()
	half := len(ups) / 2
	for _, cfg := range []Config{
		{M: 3, C: 12, Seed: 5, TrackLocal: true, FullyDynamic: true},
		{M: 2, C: 130, Seed: 5, FullyDynamic: true},
	} {
		ref := newRefEngine(t, cfg)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.apply(ups[:half]...)
		feedMixed(eng, ups[:half], 97)
		if err := ref.Downsample(1); err != nil {
			t.Fatal(err)
		}
		if err := eng.Downsample(1); err != nil {
			t.Fatal(err)
		}
		ref.apply(ups[half:]...)
		eng.ApplyBatch(ups[half:])
		sameAsRef(t, "cfg "+cfgName(cfg)+" after Downsample", ref, eng)
		ref.Close()
		eng.Close()
	}
}

// TestEngineApplyBatchAfterResume: a restored engine must rebuild its
// presence masks from the snapshot's adjacency state — a stale or empty
// dictionary would silently skip processors on the suffix.
func TestEngineApplyBatchAfterResume(t *testing.T) {
	ups := batchStream()
	half := len(ups) / 2
	for _, cfg := range []Config{
		{M: 3, C: 12, Seed: 19, TrackLocal: true, TrackEta: true, FullyDynamic: true},
		{M: 2, C: 65, Seed: 19, TrackLocal: true, FullyDynamic: true},
	} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.ApplyBatch(ups[:half])

		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := ResumeEngine(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		eng.ApplyBatch(ups[half:])
		restored.ApplyBatch(ups[half:])
		if !bytes.Equal(encodeState(t, eng.State()), encodeState(t, restored.State())) {
			t.Errorf("cfg %s: restored engine diverges from the original on a batch suffix", cfgName(cfg))
		}

		// Cross-check against the reference fed the whole stream.
		ref := newRefEngine(t, cfg)
		ref.apply(ups...)
		sameAsRef(t, "cfg "+cfgName(cfg)+" restored", ref, restored)
		ref.Close()
		eng.Close()
		restored.Close()
	}
}
