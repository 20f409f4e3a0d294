package shard

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rept/internal/core"
	"rept/internal/gen"
	"rept/internal/graph"
)

// signedStream builds a signed event stream with interleaved deletions:
// the shuffled edge list with every fourth edge deleted again a while
// after its insertion.
func signedStream(t *testing.T) []graph.Update {
	t.Helper()
	edges := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 13), 3)
	ups := make([]graph.Update, 0, len(edges)+len(edges)/4)
	for i, e := range edges {
		ups = append(ups, graph.Update{U: e.U, V: e.V})
		if i >= 40 && i%4 == 0 {
			d := edges[i-40]
			ups = append(ups, graph.Update{U: d.U, V: d.V, Del: true})
		}
	}
	return ups
}

// TestApplyBatchMatchesApplyAll is the single producer's determinism
// contract: one ApplyBatch call, uneven ApplyBatch slabs interleaved with
// per-event calls (so segments straddle the shared buffer), the
// per-event apply loop, and hand-driven per-shard engines merged with
// MergeGroups must all land on bit-identical aggregates.
func TestApplyBatchMatchesApplyAll(t *testing.T) {
	ups := signedStream(t)
	for _, cfg := range []Config{
		{M: 3, C: 12, Shards: 3, Seed: 42, TrackLocal: true, FullyDynamic: true},
		{M: 4, C: 10, Shards: 3, Seed: 42, TrackLocal: true, TrackEta: true, FullyDynamic: true}, // partial group + η
		{M: 5, C: 5, Shards: 1, Seed: 42, FullyDynamic: true, BatchSize: 64},
		{M: 2, C: 140, Shards: 2, Seed: 42, FullyDynamic: true}, // 70 processors per shard: two mask blocks
	} {
		run := func(feed func(*Sharded)) *core.Aggregates {
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%+v): %v", cfg, err)
			}
			defer s.Close()
			feed(s)
			return s.Aggregates()
		}
		perEvent := func(s *Sharded, ups []graph.Update) {
			for _, up := range ups {
				if up.Del {
					s.Delete(up.U, up.V)
				} else {
					s.Add(up.U, up.V)
				}
			}
		}
		batch := run(func(s *Sharded) { s.ApplyBatch(ups) })
		slabs := run(func(s *Sharded) {
			for i := 0; i < len(ups); i += 97 {
				perEvent(s, ups[i:min(i+13, len(ups))])
				if i+13 < len(ups) {
					s.ApplyBatch(ups[i+13 : min(i+97, len(ups))])
				}
			}
		})
		events := run(func(s *Sharded) { perEvent(s, ups) })

		merged := make([]*core.Aggregates, 0, len(cfg.shardConfigs()))
		for _, sc := range cfg.shardConfigs() {
			eng, err := core.NewEngine(sc)
			if err != nil {
				t.Fatalf("NewEngine(%+v): %v", sc, err)
			}
			eng.ApplyAll(ups)
			merged = append(merged, eng.Aggregates())
			eng.Close()
		}
		hand, err := core.MergeGroups(merged...)
		if err != nil {
			t.Fatalf("MergeGroups: %v", err)
		}

		if !reflect.DeepEqual(batch, slabs) {
			t.Errorf("cfg %+v: one ApplyBatch call diverges from slabs mixed with per-event calls", cfg)
		}
		if !reflect.DeepEqual(batch, events) {
			t.Errorf("cfg %+v: ApplyBatch aggregates diverge from per-event apply", cfg)
		}
		if !reflect.DeepEqual(batch, hand) {
			t.Errorf("cfg %+v: ApplyBatch aggregates diverge from hand-merged engines", cfg)
		}
	}
}

// TestApplyBatchSaturatedProducers hammers ApplyBatch from several
// goroutines through deliberately tiny queues, so producers repeatedly
// hit backpressure and block, and checks nothing is lost or doubled.
func TestApplyBatchSaturatedProducers(t *testing.T) {
	ups := signedStream(t)
	s, err := New(Config{M: 2, C: 8, Shards: 4, Seed: 5,
		FullyDynamic: true, BatchSize: 16, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const producers = 4
	var wg sync.WaitGroup
	per := (len(ups) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := p * per
		hi := min(lo+per, len(ups))
		wg.Add(1)
		go func(part []graph.Update) {
			defer wg.Done()
			// Many small batches: each delivery competes for 1-deep queues.
			for i := 0; i < len(part); i += 32 {
				s.ApplyBatch(part[i:min(i+32, len(part))])
			}
		}(ups[lo:hi])
	}
	wg.Wait()

	var want, dels uint64
	for _, up := range ups {
		if up.U == up.V {
			continue
		}
		want++
		if up.Del {
			dels++
		}
	}
	if got := s.Processed(); got != want {
		t.Errorf("Processed = %d, want %d", got, want)
	}
	if got := s.Deleted(); got != dels {
		t.Errorf("Deleted = %d, want %d", got, dels)
	}
}

// TestCloseDuringApplyBatch races Close against in-flight ApplyBatch
// callers: each call must either complete fully (its events counted) or
// panic with core.ErrClosed having accepted nothing — and nothing may
// deadlock, since Close waits for every issued ticket.
func TestCloseDuringApplyBatch(t *testing.T) {
	ups := signedStream(t)
	s, err := New(Config{M: 2, C: 8, Shards: 2, Seed: 3,
		FullyDynamic: true, QueueLen: 2})
	if err != nil {
		t.Fatal(err)
	}

	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ups); i += 64 {
				part := ups[i:min(i+64, len(ups))]
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != core.ErrClosed {
								t.Errorf("ApplyBatch panicked with %v, want core.ErrClosed", r)
							}
							ok = false
						}
					}()
					s.ApplyBatch(part)
					return true
				}()
				if !ok {
					return
				}
				var n uint64
				for _, up := range part {
					if up.U != up.V {
						n++
					}
				}
				accepted.Add(n)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()

	if got := s.Processed(); got != accepted.Load() {
		t.Errorf("Processed = %d, but completed calls accepted %d", got, accepted.Load())
	}
}

// TestApplyBatchSnapshotRoundTrip: a snapshot taken after wholesale
// ingest restores into a coordinator whose aggregates are bit-identical
// and which keeps agreeing with the original on a suffix fed through
// ApplyBatch (the restored engines must rebuild their presence masks).
func TestApplyBatchSnapshotRoundTrip(t *testing.T) {
	ups := signedStream(t)
	half := len(ups) / 2
	cfg := Config{M: 3, C: 12, Shards: 3, Seed: 9, TrackLocal: true, FullyDynamic: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ApplyBatch(ups[:half])

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !sameAggregates(s.Aggregates(), r.Aggregates()) {
		t.Fatal("restored aggregates diverge")
	}
	s.ApplyBatch(ups[half:])
	r.ApplyBatch(ups[half:])
	if !sameAggregates(s.Aggregates(), r.Aggregates()) {
		t.Error("restored coordinator diverges on a wholesale suffix")
	}
}

// TestApplyBatchSteadyStateZeroAlloc gates the bulk producer path: with
// the free list and engine working sets warm, an ApplyBatch churn block
// must cost 0 allocs/op across every goroutine — the copy into the
// pooled segment, the channel hand-off, and the engines' mask walks all
// reuse standing memory.
func TestApplyBatchSteadyStateZeroAlloc(t *testing.T) {
	s, err := New(Config{
		M: 2, C: 4, Seed: 7,
		FullyDynamic: true, TrackDegrees: true,
		BatchSize: 256, QueueLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	s.ApplyBatch(graph.Inserts(base))

	slice := base[:128]
	block := make([]graph.Update, 0, 256)
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
		t.Errorf("steady-state ApplyBatch allocates %.1f per %d-event batch, want 0", allocs, len(block))
	}
}

// sameAggregates compares two Aggregates by value. A class-sum table's
// slot layout depends on its insertion history (a restored engine rebuilds
// its tables from maps), so the tables compare by content.
func sameAggregates(a, b *core.Aggregates) bool {
	for _, p := range [][2]*graph.NodeTable[int64]{{a.TauV1, b.TauV1}, {a.TauV2, b.TauV2}, {a.EtaV, b.EtaV}} {
		if (p[0] == nil) != (p[1] == nil) || p[0].Len() != p[1].Len() {
			return false
		}
		same := true
		p[0].Each(func(v graph.NodeID, x int64) { same = same && p[1].Has(v) && p[1].Get(v) == x })
		if !same {
			return false
		}
	}
	x, y := *a, *b
	x.TauV1, x.TauV2, x.EtaV = nil, nil, nil
	y.TauV1, y.TauV2, y.EtaV = nil, nil, nil
	return reflect.DeepEqual(x, y)
}
