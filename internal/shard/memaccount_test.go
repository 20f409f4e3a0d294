package shard

import (
	"bytes"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/mem"
)

// runAccountedStream drives one full churn-and-adapt workload — adds,
// a mid-stream downsample, more adds, deletions — and returns the final
// snapshot image plus the global estimate.
func runAccountedStream(t *testing.T, ac *mem.Accountant) ([]byte, float64, int) {
	t.Helper()
	s, err := New(Config{
		M: 4, C: 8, Shards: 2, Seed: 9,
		TrackLocal: true, TrackDegrees: true, FullyDynamic: true,
		Mem: ac,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stream := gen.Shuffle(gen.HolmeKim(500, 6, 0.4, 3), 11)
	half := len(stream) / 2
	s.ApplyBatch(graph.Inserts(stream[:half]))
	if err := s.Downsample(1); err != nil {
		t.Fatal(err)
	}
	s.ApplyBatch(graph.Inserts(stream[half:]))
	dels := make([]graph.Update, 0, 100)
	for _, e := range stream[:100] {
		dels = append(dels, graph.Update{U: e.U, V: e.V, Del: true})
	}
	s.ApplyBatch(dels)

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s.Snapshot().Global, s.SampledEdges()
}

// TestAccountingBitIdentical is the behavior-preservation gate of the
// memory-accounting seam: the same stream through the same configuration
// with the ledger attached and detached must produce byte-identical
// snapshots and bit-identical estimates — accounting observes capacity
// transitions, it never participates in them.
func TestAccountingBitIdentical(t *testing.T) {
	snapOff, globalOff, sampledOff := runAccountedStream(t, nil)
	snapOn, globalOn, sampledOn := runAccountedStream(t, mem.New())
	if globalOff != globalOn {
		t.Errorf("global estimate differs with accounting on: %v vs %v", globalOn, globalOff)
	}
	if sampledOff != sampledOn {
		t.Errorf("sampled-edge count differs with accounting on: %d vs %d", sampledOn, sampledOff)
	}
	if !bytes.Equal(snapOff, snapOn) {
		t.Errorf("snapshot images differ with accounting on (%d vs %d bytes)", len(snapOn), len(snapOff))
	}
}

// TestLedgerComponentsPopulated: after real ingest every storage layer
// the shard owns has reported bytes, and downsampling shrinks the
// sample-bearing components.
func TestLedgerComponentsPopulated(t *testing.T) {
	ac := mem.New()
	s, err := New(Config{
		M: 4, C: 4, Shards: 1, Seed: 3,
		TrackLocal: true, TrackDegrees: true,
		Mem: ac,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.ApplyBatch(graph.Inserts(gen.Shuffle(gen.HolmeKim(2000, 8, 0.3, 5), 7)))
	s.Snapshot() // barrier: every in-flight capacity change lands

	for _, comp := range []mem.Component{
		mem.CompAdjacency, mem.CompCounters, mem.CompDegrees, mem.CompRings,
	} {
		if got := ac.Bytes(comp); got <= 0 {
			t.Errorf("component %s = %d bytes after ingest, want > 0", comp, got)
		}
	}
	if total := ac.MemoryTotal(); total <= 0 {
		t.Fatalf("MemoryTotal = %d, want > 0", total)
	}

	before := ac.Bytes(mem.CompAdjacency)
	if err := s.Downsample(2); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	after := ac.Bytes(mem.CompAdjacency)
	if after >= before {
		t.Errorf("adjacency = %d bytes after Downsample(2), want < %d (the sample thinned 4x)", after, before)
	}
}

// TestAccountedDispatchSteadyStateZeroAlloc re-runs the steady-state
// zero-allocation dispatch gate WITH the ledger attached: accounting
// charges only at capacity transitions, so warm-path ingest must stay
// allocation-free with it on (the -mem-budget deployments run this way
// permanently).
func TestAccountedDispatchSteadyStateZeroAlloc(t *testing.T) {
	const batchLen = 256
	s, err := New(Config{
		M: 2, C: 4, Seed: 7,
		FullyDynamic: true, TrackDegrees: true,
		BatchSize: batchLen, QueueLen: 4,
		Mem: mem.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	s.ApplyBatch(graph.Inserts(base))

	slice := base[:batchLen/2]
	block := make([]graph.Update, 0, batchLen)
	for i := len(slice) - 1; i >= 0; i-- {
		block = append(block, graph.Update{U: slice[i].U, V: slice[i].V, Del: true})
	}
	for _, ed := range slice {
		block = append(block, graph.Update{U: ed.U, V: ed.V})
	}

	for i := 0; i < 64; i++ {
		s.ApplyBatch(block)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ApplyBatch(block)
	})
	if allocs != 0 {
		t.Errorf("accounted steady-state dispatch allocates %.1f per %d-event batch, want 0", allocs, len(block))
	}
}
