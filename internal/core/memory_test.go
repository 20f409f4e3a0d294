package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// maxAdjacencyBytesPerEdge caps the sampled adjacency's byte cost per
// sampled edge on a power-law stream: the neighbor-set stores plus the
// node dictionary that indexes them. Under a memory budget this figure
// decides how far the controller must cut the sampling probability, so it
// is gated like a time regression. With one dictionary per engine whose
// rows also carry a 16-bit neighbor signature per processor, and sets
// past six neighbors in hash tables, it measures 37.9 + 13.4 = 51.3
// B/edge here (a sorted middle layout between inline and table measured
// 50.9); the same rows without signatures measured 37 + 9 = 47,
// per-processor node indexes beside per-block mask tables 63 + 5 = 68,
// and an 80-byte arena entry with in-line slice headers 106.
const maxAdjacencyBytesPerEdge = 56

// TestAdjacencyBytesPerSampledEdge feeds a seeded Holme–Kim stream to an
// engine and bounds the adjacency and masks parts of its footprint
// together by the number of edges the processors hold: the node index
// that used to sit in each processor's adjacency now lives in the
// engine's dictionary, counted under masks.
func TestAdjacencyBytesPerSampledEdge(t *testing.T) {
	e, err := NewEngine(Config{M: 10, C: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.ApplyAll(graph.Inserts(gen.HolmeKim(50_000, 8, 0.5, 1)))
	edges := e.SampledEdges()
	if edges == 0 {
		t.Fatal("no sampled edges")
	}
	fp := e.Footprint()
	adj, masks := fp.Adjacency, fp.Masks
	perEdge := (adj + masks) / int64(edges)
	t.Logf("adjacency %d + dictionary %d bytes over %d sampled edges: %d + %d = %d B/edge",
		adj, masks, edges, adj/int64(edges), masks/int64(edges), perEdge)
	if perEdge > maxAdjacencyBytesPerEdge {
		t.Errorf("adjacency and dictionary cost %d B per sampled edge, want <= %d", perEdge, maxAdjacencyBytesPerEdge)
	}
}

// TestEngineLedgerMatchesFootprint drives a seeded schedule of inserts,
// deletes, phantom deletes, self-loops, Downsample(1) and snapshot
// round trips through engines, and after every step requires each
// processor's NeighborSets.Bytes, which reads a running total of table
// slots, to equal the bytes recomputed by walking every live table, and
// Footprint — what the shard layer moves the byte ledger to — to equal
// the sum of its parts: every processor's neighbor-set store, the node
// dictionary, and the class-sum tables, their delta and every per-edge
// counter table. Every 100th step an observer takes the class-sum delta
// (TakeDelta), so the delta is created, cleared in place, ended by
// Downsample, and never carried across a resume
// (TestEngineDeltaOnlyWhenObserved checks the footprint at StopDelta). A
// transition that misses the slot total (or counts one twice) shows up
// as a drift at the step that caused it.
//
// It also checks the dictionary's signatures: after every step, each
// cell of the step's endpoints must hold the OR of graph.SigBit over the
// node's set on that processor, and 0 where the processor holds no set;
// after each Downsample, each resume and every 1000th step, so must every
// node's cell, and every free id's row must be all zero. C=130 spreads
// the presence masks over three blocks; C=22 leaves a partial group, so η
// and its per-edge counters are tracked (and Downsample, which refuses η,
// is skipped).
func TestEngineLedgerMatchesFootprint(t *testing.T) {
	for _, c := range []int{20, 130, 22} {
		t.Run(fmt.Sprintf("C=%d", c), func(t *testing.T) { testEngineLedger(t, c) })
	}
}

func testEngineLedger(t *testing.T, c int) {
	steps := 20_000
	if testing.Short() {
		steps = 4_000
	}
	cfg := Config{M: 5, C: c, Seed: 3, TrackLocal: true, FullyDynamic: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	check := func(step int, what string) {
		t.Helper()
		var adj int64
		for i, p := range e.procs {
			if got, want := p.sets.Bytes(), walkedBytes(&p.sets); got != want {
				t.Fatalf("step %d (%s): processor %d's neighbor sets report %d bytes, a walk over their tables %d", step, what, i, got, want)
			}
			adj += p.sets.Bytes()
		}
		want := Footprint{Adjacency: adj, Masks: e.dict.bytes(), Counters: countersBytes(e)}
		if got := e.Footprint(); got != want {
			t.Fatalf("step %d (%s): footprint %+v, parts %+v", step, what, got, want)
		}
	}
	checkSigs := func(step int, what string, nodes ...graph.NodeID) {
		t.Helper()
		for _, x := range nodes {
			id := e.dict.index.Get(x)
			for i, p := range e.procs {
				var want uint16
				if s := e.dict.slot(id, i); s != 0 {
					want = p.sets.Sig(s, x)
				}
				if got := e.dict.sig(id, i); got != want {
					t.Fatalf("step %d (%s): node %d on processor %d has signature %#x, want %#x", step, what, x, i, got, want)
				}
			}
		}
	}
	checkAllSigs := func(step int, what string) {
		t.Helper()
		var nodes []graph.NodeID
		e.dict.index.Each(func(x graph.NodeID, _ int32) { nodes = append(nodes, x) })
		checkSigs(step, what, nodes...)
		for _, id := range append([]int32{0}, e.dict.free...) {
			for k, w := range e.dict.rows[int(id)*e.dict.w : int(id+1)*e.dict.w] {
				if w != 0 {
					t.Fatalf("step %d (%s): unused id %d has row word %d = %#x, want 0", step, what, id, k, w)
				}
			}
		}
	}
	check(0, "new")
	rng := rand.New(rand.NewPCG(7, uint64(c)))
	const hubs, leaves = 2, 3000
	pick := func() graph.NodeID {
		// A quarter of the endpoints land on a hub, so hub sets move to a
		// table and grow it on every processor while most leaves stay
		// inline.
		if rng.IntN(4) == 0 {
			return graph.NodeID(rng.IntN(hubs))
		}
		return graph.NodeID(hubs + rng.IntN(leaves))
	}
	live := map[graph.Edge]bool{}
	var order []graph.Edge
	recycled, grown := false, false
	delta := 0
	for i := 1; i <= steps; i++ {
		// Alternate growth and teardown phases, so nodes leave every
		// processor and their ids and slots are recycled.
		addPerMille := 800
		if i/4000%2 == 1 {
			addPerMille = 200
		}
		what, all := "", i%1000 == 0
		var ends []graph.NodeID
		switch r := rng.IntN(1000); {
		case i%(steps/3) == 0 && !e.trackEta:
			what, all = "Downsample(1)", true
			if err := e.Downsample(1); err != nil {
				t.Fatal(err)
			}
		case i%100 == 0:
			// An observer takes the delta, or whole class sums and a
			// restart where none is recorded (a Downsample ended it).
			what = "observe"
			if _, ok := e.TakeDelta(); ok {
				delta++
			}
		case r < addPerMille:
			ed := graph.Edge{U: pick(), V: pick()}.Canonical()
			if ed.U == ed.V || live[ed] {
				break
			}
			what = "insert"
			live[ed] = true
			order = append(order, ed)
			ends = []graph.NodeID{ed.U, ed.V}
			e.ApplyBatch([]graph.Update{{U: ed.U, V: ed.V}})
		case r < 900:
			if len(order) == 0 {
				break
			}
			what = "delete"
			j := rng.IntN(len(order))
			ed := order[j]
			order[j] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, ed)
			ends = []graph.NodeID{ed.U, ed.V}
			e.Delete(ed.U, ed.V)
		case r < 960:
			what = "phantom delete"
			ends = []graph.NodeID{graph.NodeID(10_000 + rng.IntN(100)), pick()}
			e.Delete(ends[0], ends[1])
		case r < 995:
			what = "self-loop"
			u := pick()
			ends = []graph.NodeID{u}
			e.Add(u, u)
		default:
			what, all = "snapshot + resume", true
			var buf bytes.Buffer
			if err := e.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			e.Close()
			if e, err = ResumeEngine(cfg, &buf); err != nil {
				t.Fatal(err)
			}
		}
		check(i, what)
		checkSigs(i, what, ends...)
		if all {
			checkAllSigs(i, what)
		}
		recycled = recycled || len(e.dict.free) > 0
		// A set past 32 neighbors holds a grown table.
		if id := e.dict.index.Get(0); id != 0 && !grown {
			for j, p := range e.procs {
				if s := e.dict.slot(id, j); s != 0 && p.sets.Deg(s) > 32 {
					grown = true
				}
			}
		}
	}
	wantShift := 3
	if e.trackEta {
		wantShift = 0
	}
	if e.SampleShift() != wantShift || !recycled || !grown || delta == 0 {
		t.Fatalf("schedule missed a transition: shift %d, ids recycled %v, hub table grown %v, deltas taken %d", e.SampleShift(), recycled, grown, delta)
	}
}

// walkedBytes recomputes s.Bytes() by walking every live table instead of
// reading the store's running slot total. The store's fields are graph's
// own, so it reads them through reflection: the arena, its free list and
// the side store's table headers and free list by capacity, and each
// table by length.
func walkedBytes(s *graph.NeighborSets) int64 {
	v := reflect.ValueOf(s).Elem()
	side := v.FieldByName("side")
	tables := side.FieldByName("tables")
	var b int64
	for _, f := range []reflect.Value{v.FieldByName("sets"), v.FieldByName("freed"), tables, side.FieldByName("free")} {
		b += int64(f.Cap()) * int64(f.Type().Elem().Size())
	}
	for i := range tables.Len() {
		t := tables.Index(i)
		b += int64(t.Len()) * int64(t.Type().Elem().Size())
	}
	return b
}
