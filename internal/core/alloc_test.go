package core

import (
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// allocLayouts are the processor counts the zero-allocation gates run
// at: one presence-mask block, and one past it (two blocks).
var allocLayouts = []int{4, 65}

// TestApplyAllSteadyStateZeroAlloc gates the engine's steady-state
// zero-allocation claim: with the working set warmed up, a fully-dynamic
// churn block over a stable node universe — deletions, re-insertions,
// duplicate traffic, every counter family enabled — must not allocate.
// This is what keeps long-running ingest free of GC pressure regardless
// of stream length.
func TestApplyAllSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range allocLayouts {
		testApplyAllZeroAlloc(t, c)
	}
}

func testApplyAllZeroAlloc(t *testing.T, c int) {
	e, err := NewEngine(Config{M: 2, C: c, Seed: 7, FullyDynamic: true, TrackLocal: true, TrackEta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	e.AddAll(base)

	// The churn block deletes and re-inserts a slice of live edges (LIFO,
	// so the block is well-formed against the live graph each round).
	slice := base[:128]
	block := make([]graph.Update, 0, 2*len(slice))
	for i := len(slice) - 1; i >= 0; i-- {
		block = append(block, graph.Update{U: slice[i].U, V: slice[i].V, Del: true})
	}
	for _, ed := range slice {
		block = append(block, graph.Update{U: ed.U, V: ed.V})
	}

	allocs := testing.AllocsPerRun(100, func() {
		e.ApplyAll(block)
	})
	if allocs != 0 {
		t.Errorf("C=%d: steady-state ApplyAll allocates %.1f per %d-event block, want 0", c, allocs, len(block))
	}
}

// TestDeleteSteadyStateZeroAlloc gates the per-event deletion path the
// same way: once the working set is warm, Engine.Delete followed by
// re-insertion of the same edges — churn through the backward-shift
// deletion of every table on the path, the per-edge counters included —
// must not allocate.
func TestDeleteSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range allocLayouts {
		testDeleteZeroAlloc(t, c)
	}
}

func testDeleteZeroAlloc(t *testing.T, c int) {
	e, err := NewEngine(Config{M: 2, C: c, Seed: 7, FullyDynamic: true, TrackLocal: true, TrackEta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	e.AddAll(base)

	slice := base[:64]
	allocs := testing.AllocsPerRun(100, func() {
		for i := len(slice) - 1; i >= 0; i-- {
			e.Delete(slice[i].U, slice[i].V)
		}
		for _, ed := range slice {
			e.Add(ed.U, ed.V)
		}
	})
	if allocs != 0 {
		t.Errorf("C=%d: steady-state Delete/Add churn allocates %.1f per %d-event round, want 0", c, allocs, 2*len(slice))
	}
}
