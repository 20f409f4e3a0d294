package query

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"rept/internal/core"
	"rept/internal/graph"
	"rept/internal/shard"
)

// fakeSource is a deterministic Source: Observe returns the current
// counter state, whole — as a Source does after a Downsample, so every
// epoch ranks every node — so tests control exactly what each epoch
// sees. Its counters describe one exact processor (M = C = 1), so the
// global estimate equals the processed count and τ̂_v equals local[v].
type fakeSource struct {
	processed atomic.Uint64
	observes  atomic.Uint64
	stops     atomic.Uint64
	local     map[graph.NodeID]int64
	degrees   map[graph.NodeID]uint32
}

func (f *fakeSource) StopDeltas() { f.stops.Add(1) }

func (f *fakeSource) Observe() shard.Observation {
	f.observes.Add(1)
	return shard.Observation{
		Aggregates: aggregatesOf(1, int64(f.processed.Load()), f.local),
		Degrees:    degreesOf(f.degrees),
		Processed:  f.processed.Load(),
	}
}

// aggregatesOf builds the counters of c exact processors (M = 1, one
// class) whose semi-triangle counts sum to tau and whose per-node class
// sums are sums (nil: locals untracked), so τ̂_v = sums[v]/c.
func aggregatesOf(c int, tau int64, sums map[graph.NodeID]int64) *core.Aggregates {
	a := &core.Aggregates{M: 1, C: c, TauProc: make([]int64, c)}
	a.TauProc[0] = tau
	if sums != nil {
		a.TauV1, a.TauV2 = &graph.NodeTable[int64]{}, &graph.NodeTable[int64]{}
		for v, x := range sums {
			a.TauV1.Add(v, x)
		}
	}
	return a
}

// degreesOf builds degree counters in which each node v of m has degree
// m[v] (nil: untracked), by attaching v to m[v] fresh leaves numbered from
// 1<<31 up — ids no test queries.
func degreesOf(m map[graph.NodeID]uint32) *graph.DegreeCounts {
	if m == nil {
		return nil
	}
	dt := graph.NewDegreeTable()
	leaf := graph.NodeID(1 << 31)
	for v, d := range m {
		for ; d > 0; d-- {
			dt.AddEdge(v, leaf)
			leaf++
		}
	}
	return dt.Counts()
}

// viewOf builds an unpublished view over c exact processors' class sums
// (τ̂_v = sums[v]/c) and the given degrees; nil maps leave either
// untracked.
func viewOf(c int, sums map[graph.NodeID]int64, degrees map[graph.NodeID]uint32) *View {
	v := &View{deg: degreesOf(degrees)}
	if sums != nil {
		v.counts = aggregatesOf(c, 0, sums)
	}
	return v
}

func (f *fakeSource) Processed() uint64 { return f.processed.Load() }

func TestPublisherInitialViewAndRefresh(t *testing.T) {
	src := &fakeSource{}
	p := NewPublisher(src, Config{Interval: time.Hour})
	defer p.Close()

	v := p.View()
	if v == nil || v.Epoch != 1 {
		t.Fatalf("initial view = %+v, want epoch 1", v)
	}
	src.processed.Store(42)
	if got := p.View().Processed; got != 0 {
		t.Errorf("stale view processed = %d, want 0 (no trigger yet)", got)
	}
	v2 := p.Refresh()
	if v2.Epoch != 2 || v2.Processed != 42 {
		t.Errorf("refreshed view = epoch %d processed %d, want 2 and 42", v2.Epoch, v2.Processed)
	}
	if p.View() != v2 {
		t.Error("View() does not return the refreshed epoch")
	}
}

func TestPublisherIntervalTrigger(t *testing.T) {
	src := &fakeSource{}
	p := NewPublisher(src, Config{Interval: 10 * time.Millisecond})
	defer p.Close()

	// Keep edges trickling in: the interval trigger only fires for a
	// stream that moved (idle streams publish nothing, by design).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				src.processed.Add(1)
			}
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for p.View().Epoch < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e := p.View().Epoch; e < 4 {
		t.Errorf("epoch = %d after 5s with 10ms interval, want >= 4", e)
	}
}

// TestPublisherIdleSkipsEpochs: with no new edges, the periodic trigger
// must NOT burn barriers republishing identical views.
func TestPublisherIdleSkipsEpochs(t *testing.T) {
	src := &fakeSource{}
	src.processed.Store(7)
	p := NewPublisher(src, Config{Interval: time.Millisecond})
	defer p.Close()

	time.Sleep(50 * time.Millisecond)
	if e := p.View().Epoch; e != 1 {
		t.Errorf("epoch = %d on an idle stream, want 1 (no republish)", e)
	}
	if o := src.observes.Load(); o != 1 {
		t.Errorf("source observed %d times on an idle stream, want 1", o)
	}
	// The first new edge wakes the publisher back up.
	src.processed.Add(1)
	deadline := time.Now().Add(5 * time.Second)
	for p.View().Epoch < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v := p.View(); v.Epoch < 2 || v.Processed != 8 {
		t.Errorf("view after idle wake = epoch %d processed %d, want >= 2 and 8", v.Epoch, v.Processed)
	}
}

func TestPublisherCloseIdempotentAndStopsPublishing(t *testing.T) {
	src := &fakeSource{}
	p := NewPublisher(src, Config{Interval: time.Millisecond})
	time.Sleep(20 * time.Millisecond)
	p.Close()
	p.Close()
	observes := src.observes.Load()
	last := p.View()
	time.Sleep(20 * time.Millisecond)
	if src.observes.Load() != observes {
		t.Error("publisher kept observing after Close")
	}
	if n := src.stops.Load(); n != 1 {
		t.Errorf("two Closes stopped the source's deltas %d times, want 1", n)
	}
	if p.View() != last {
		t.Error("view changed after Close")
	}
}

func TestViewCCAndStats(t *testing.T) {
	// Two processors halve the class sums: τ̂ = {1: 6, 2: 1, 3: 0.5}.
	sums := map[graph.NodeID]int64{1: 12, 2: 2, 3: 1}
	v := viewOf(2, sums, map[graph.NodeID]uint32{1: 4, 2: 1, 4: 9})
	if cc, ok := v.CC(1); !ok || cc != 2*6.0/(4*3) {
		t.Errorf("CC(1) = %v,%v, want 1.0,true", cc, ok)
	}
	if _, ok := v.CC(2); ok {
		t.Error("CC defined for degree-1 node")
	}
	if cc, ok := v.CC(4); !ok || cc != 0 {
		t.Errorf("CC(4) = %v,%v, want 0,true (no local triangles)", cc, ok)
	}
	if _, ok := viewOf(2, sums, nil).CC(1); ok {
		t.Error("CC defined without degree table")
	}
	s := v.Stat(1)
	if s.Node != 1 || s.Local != 6 || s.Degree != 4 || s.CC != 1 {
		t.Errorf("Stat(1) = %+v", s)
	}
	if s := v.Stat(2); !math.IsNaN(s.CC) {
		t.Errorf("Stat(2).CC = %v, want NaN", s.CC)
	}
}

func TestTopKSelection(t *testing.T) {
	local := map[graph.NodeID]int64{}
	for i := 0; i < 1000; i++ {
		local[graph.NodeID(i)] = int64(i % 97)
	}
	local[500] = 1e6
	local[501] = 1e6 // tie: lower id first
	v := viewOf(1, local, nil)
	v.rank(5, v.counts.EachLocal)
	if len(v.TopK) != 5 {
		t.Fatalf("len(TopK) = %d, want 5", len(v.TopK))
	}
	if v.TopK[0].Node != 500 || v.TopK[1].Node != 501 {
		t.Errorf("top-2 = %d,%d, want 500,501 (tie broken by id)", v.TopK[0].Node, v.TopK[1].Node)
	}
	for i := 1; i < len(v.TopK); i++ {
		if stronger(v.TopK[i], v.TopK[i-1]) {
			t.Errorf("TopK not sorted at %d: %+v > %+v", i, v.TopK[i], v.TopK[i-1])
		}
	}
	// Top-3 of the ranking, and k beyond the precomputed bound clamps.
	if got := v.Top(3); len(got) != 3 || got[0].Node != 500 {
		t.Errorf("Top(3) = %+v", got)
	}
	if got := v.Top(50); len(got) != 5 {
		t.Errorf("Top(50) returned %d rows, want 5 (clamped)", len(got))
	}
	if got := v.Top(-1); len(got) != 0 {
		t.Errorf("Top(-1) returned %d rows, want 0", len(got))
	}
}

// TestTopKMatchesFullSort cross-checks the heap selection against a full
// sort on a larger map.
func TestTopKMatchesFullSort(t *testing.T) {
	local := map[graph.NodeID]int64{}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		local[graph.NodeID(i)] = int64(rng % 256)
	}
	v := viewOf(1, local, nil)
	v.rank(64, v.counts.EachLocal)

	all := make([]NodeStat, 0, len(local))
	for n, l := range local {
		all = append(all, NodeStat{Node: n, Local: float64(l)})
	}
	// Selection sort of the strongest 64 is plenty for a test oracle.
	for i := 0; i < 64; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if stronger(all[j], all[best]) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		if all[i].Node != v.TopK[i].Node || all[i].Local != v.TopK[i].Local {
			t.Fatalf("rank %d: heap gave %+v, sort gives %+v", i, v.TopK[i], all[i])
		}
	}
}

func TestTopKEmptyAndUntracked(t *testing.T) {
	v := &View{}
	v.rank(10, v.counts.EachLocal)
	if v.TopK != nil {
		t.Error("TopK built without local tracking")
	}
	v2 := viewOf(1, map[graph.NodeID]int64{}, nil)
	v2.rank(10, v2.counts.EachLocal)
	if len(v2.TopK) != 0 {
		t.Error("TopK non-empty for empty local map")
	}
}
