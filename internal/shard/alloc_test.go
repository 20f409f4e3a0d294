package shard

import (
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// TestDispatchSteadyStateZeroAlloc gates the per-event dispatch path:
// with the batch free list warm, a churn block fed one event at a time
// through Delete and Add and sized exactly to the batch length — so each
// round fills the shared buffer once and sends exactly one full batch
// under the ingest mutex — must not allocate on the producer
// side, and the consumer goroutines (engine shards plus the degree
// tracker) must stay allocation-free on churn too, since AllocsPerRun
// counts every goroutine's allocations.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	const batchLen = 256
	s, err := New(Config{
		M: 2, C: 4, Seed: 7,
		FullyDynamic: true, TrackDegrees: true,
		BatchSize: batchLen, QueueLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	s.ApplyBatch(graph.Inserts(base))

	// The churn block deletes and re-inserts live edges (LIFO), sized to
	// exactly one batch so each round triggers exactly one dispatch.
	slice := base[:batchLen/2]
	block := make([]graph.Update, 0, batchLen)
	for i := len(slice) - 1; i >= 0; i-- {
		block = append(block, graph.Update{U: slice[i].U, V: slice[i].V, Del: true})
	}
	for _, ed := range slice {
		block = append(block, graph.Update{U: ed.U, V: ed.V})
	}

	perEvent := func() {
		for _, up := range block {
			if up.Del {
				s.Delete(up.U, up.V)
			} else {
				s.Add(up.U, up.V)
			}
		}
	}
	// Warm the batch free list, the engines' working sets, and the degree
	// tracker's membership set before measuring.
	for i := 0; i < 64; i++ {
		perEvent()
	}

	allocs := testing.AllocsPerRun(100, perEvent)
	if allocs != 0 {
		t.Errorf("steady-state dispatch allocates %.1f per %d-event batch, want 0", allocs, len(block))
	}
}
