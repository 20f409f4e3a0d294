package shard

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"rept/internal/core"
	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/mem"
	"rept/internal/wal"
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

// TestLedgerComponentsPopulated: every hand-off queue is charged its
// exact buffer size, the WAL logger's included; after real ingest every
// storage layer the shard owns has reported bytes; and downsampling
// shrinks the sample-bearing components.
func TestLedgerComponentsPopulated(t *testing.T) {
	ac := mem.New()
	cfg := Config{
		M: 4, C: 8, Shards: 2, Seed: 3,
		TrackLocal: true, TrackDegrees: true,
		Mem: ac,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queue := defaultQueueLen * msgBytes
	if got, want := ac.Bytes(mem.CompRings), int64(s.Shards()+1)*queue; got != want {
		t.Errorf("rings = %d bytes after New, want %d (%d engine shards + degree tracker, %d bytes each)", got, want, s.Shards(), queue)
	}
	rec, err := wal.Recover(wal.NewMemBackend(), cfg.FingerprintHash())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(0, func([]graph.Update) error { return nil }); err != nil {
		t.Fatal(err)
	}
	lg, err := rec.Log(wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.StartWAL(lg, 0, nil)
	if got, want := ac.Bytes(mem.CompRings), int64(s.Shards()+2)*queue; got != want {
		t.Errorf("rings = %d bytes after StartWAL, want %d (one more queue)", got, want)
	}

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

// TestResumeChargesDegreeTable: a restored degree tracker's live-edge set
// is on the ledger as soon as Resume returns, before any ingest.
func TestResumeChargesDegreeTable(t *testing.T) {
	cfg := Config{M: 4, C: 4, Shards: 1, Seed: 3, TrackLocal: true, TrackDegrees: true, Mem: mem.New()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyBatch(graph.Inserts(gen.Shuffle(gen.HolmeKim(2000, 8, 0.3, 5), 7)))
	s.Snapshot()
	want := cfg.Mem.Bytes(mem.CompDegrees)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	cfg.Mem = mem.New()
	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := cfg.Mem.Bytes(mem.CompDegrees); got <= 0 || got > want {
		t.Errorf("degrees component = %d bytes right after Resume, want in (0, %d]", got, want)
	}
}

// TestLedgerMatchesEngineFootprints drives a seeded schedule through an
// accounted coordinator — ApplyBatch bodies of inserts, deletes, phantom
// deletes and self-loops, Downsample(1), Observe and StopDeltas, and
// WriteSnapshot followed by Resume into a fresh
// ledger — and after each step's barrier requires the ledger's
// adjacency, masks and counters components to equal the sum of the shard
// engines' footprints. No producer runs at that point, so the barrier's
// WaitGroup orders every shard goroutine's last reconcile before the
// read. A resumed coordinator is checked before any barrier: its engines
// must be on the ledger as soon as Resume returns.
func TestLedgerMatchesEngineFootprints(t *testing.T) {
	cfg := Config{
		M: 4, C: 8, Shards: 2, Seed: 5,
		TrackLocal: true, FullyDynamic: true,
		Mem: mem.New(),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	check := func(step int, what string) {
		t.Helper()
		var want core.Footprint
		for _, e := range s.engines {
			fp := e.Footprint()
			want.Adjacency += fp.Adjacency
			want.Masks += fp.Masks
			want.Counters += fp.Counters
		}
		got := core.Footprint{
			Adjacency: cfg.Mem.Bytes(mem.CompAdjacency),
			Masks:     cfg.Mem.Bytes(mem.CompMasks),
			Counters:  cfg.Mem.Bytes(mem.CompCounters),
		}
		if got != want {
			t.Fatalf("step %d (%s): ledger %+v, engine footprints %+v", step, what, got, want)
		}
	}
	check(0, "new")

	rng := rand.New(rand.NewPCG(11, 3))
	const hubs, leaves = 3, 4000
	pick := func() graph.NodeID {
		// Every fifth endpoint is a hub, so hub sets move to tables and
		// grow them while most leaves stay inline.
		if rng.IntN(5) == 0 {
			return graph.NodeID(rng.IntN(hubs))
		}
		return graph.NodeID(hubs + rng.IntN(leaves))
	}
	live := map[graph.Edge]bool{}
	var order []graph.Edge
	var body []graph.Update
	resumed, deltas := 0, 0
	for step := 1; step <= 400; step++ {
		what := ""
		switch r := rng.IntN(100); {
		case r < 80:
			what = "batch"
			body = body[:0]
			addPerMille := 700
			if step/150%2 == 1 {
				addPerMille = 300 // teardown phase: nodes leave and ids recycle
			}
			for range 1 + rng.IntN(128) {
				switch q := rng.IntN(1000); {
				case q < addPerMille:
					ed := graph.Edge{U: pick(), V: pick()}.Canonical()
					if ed.U != ed.V && !live[ed] {
						live[ed] = true
						order = append(order, ed)
						body = append(body, graph.Update{U: ed.U, V: ed.V})
					}
				case q < 950:
					if len(order) > 0 {
						j := rng.IntN(len(order))
						ed := order[j]
						order[j] = order[len(order)-1]
						order = order[:len(order)-1]
						delete(live, ed)
						body = append(body, graph.Update{U: ed.U, V: ed.V, Del: true})
					}
				case q < 980:
					// A phantom delete: this edge was never inserted.
					body = append(body, graph.Update{U: graph.NodeID(100_000 + rng.IntN(50)), V: pick(), Del: true})
				default:
					u := pick()
					body = append(body, graph.Update{U: u, V: u})
				}
			}
			s.ApplyBatch(body)
			s.SampledEdges() // barrier
		case r < 82 && s.SampleShift() == 0:
			what = "Downsample(1)"
			if err := s.Downsample(1); err != nil {
				t.Fatal(err)
			}
		case r < 88:
			what = "StopDeltas"
			s.StopDeltas()
		case r < 96:
			what = "Observe"
			if s.Observe().Delta {
				deltas++
			}
		default:
			what = "snapshot + resume"
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			check(step, "snapshot")
			s.Close()
			cfg.Mem = mem.New()
			if s, err = Resume(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			resumed++
		}
		check(step, what)
	}
	if s.SampleShift() == 0 || resumed == 0 || deltas == 0 || cfg.Mem.Bytes(mem.CompCounters) == 0 {
		t.Fatalf("schedule missed a case: shift %d, resumes %d, deltas taken %d, counters %d B",
			s.SampleShift(), resumed, deltas, cfg.Mem.Bytes(mem.CompCounters))
	}
}
