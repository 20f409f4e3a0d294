package rept_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rept"
	"rept/internal/gen"
)

// TestViewMatchesSnapshotAtSameEpoch is the equivalence property: with
// ingest quiesced, a refreshed view must answer every query exactly as a
// barrier Snapshot at the same prefix does — the view layer adds bounded
// staleness, never a different answer.
func TestViewMatchesSnapshotAtSameEpoch(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 16, Shards: 2, Seed: 9, TrackLocal: true, TrackEta: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if _, err := est.StartViews(rept.ViewConfig{Interval: time.Hour, TopK: 25}); err != nil {
		t.Fatal(err)
	}

	est.AddAll(gen.Shuffle(gen.HolmeKim(800, 5, 0.4, 3), 11))
	v := est.Views().Refresh()
	snap := est.Snapshot()

	if v.Global != snap.Global {
		t.Errorf("view global %v != snapshot global %v", v.Global, snap.Global)
	}
	if v.EtaHat != snap.EtaHat {
		t.Errorf("view etaHat %v != snapshot etaHat %v", v.EtaHat, snap.EtaHat)
	}
	if v.Variance != snap.Variance && !(math.IsNaN(v.Variance) && math.IsNaN(snap.Variance)) {
		t.Errorf("view variance %v != snapshot variance %v", v.Variance, snap.Variance)
	}
	if local := v.Local(); !reflect.DeepEqual(local, snap.Local) {
		t.Errorf("view local map (%d entries) differs from snapshot local map (%d entries)", len(local), len(snap.Local))
	}
	if v.Processed != est.Processed() {
		t.Errorf("view processed %d != estimator processed %d", v.Processed, est.Processed())
	}
	// The precomputed ranking agrees with a scan of the snapshot map.
	for i, st := range v.Top(25) {
		if got, want := st.Local, snap.Local[st.Node]; got != want {
			t.Errorf("topK[%d] node %d local %v != snapshot %v", i, st.Node, got, want)
		}
		stronger := 0
		for n, l := range snap.Local {
			if l > st.Local || (l == st.Local && n < st.Node) {
				stronger++
			}
		}
		if stronger > i {
			t.Errorf("topK[%d] node %d is outranked by %d nodes in the snapshot", i, st.Node, stronger)
		}
	}
	// Accessors route through the same view.
	if est.Global() != v.Global {
		t.Errorf("Global() = %v, want view global %v", est.Global(), v.Global)
	}
	for n := range snap.Local {
		if est.Local(n) != snap.Local[n] {
			t.Fatalf("Local(%d) = %v, want %v", n, est.Local(n), snap.Local[n])
		}
	}
}

// TestViewCCMatchesExact checks the clustering coefficients end to end in
// exact mode (M=1): cc from the view equals 2·τ_v/(d·(d−1)) computed from
// exact counts and true degrees.
func TestViewCCMatchesExact(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(300, 4, 0.5, 8), 2)
	exact := rept.ExactCount(edges, rept.ExactOptions{Local: true})

	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 1, C: 1, Seed: 1, TrackLocal: true, TrackDegrees: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if _, err := est.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	est.AddAll(edges)
	v := est.Views().Refresh()

	deg := make(map[rept.NodeID]int)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	checked := 0
	for n, d := range deg {
		cc, ok := v.CC(n)
		if d < 2 {
			if ok {
				t.Errorf("cc(%d) defined with degree %d", n, d)
			}
			continue
		}
		want := 2 * float64(exact.TauV[n]) / (float64(d) * float64(d-1))
		if !ok || cc != want {
			t.Errorf("cc(%d) = %v,%v, want %v", n, cc, ok, want)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d nodes checked, generator produced a degenerate stream", checked)
	}
}

// TestReadersNeverBlockWhileIngestSaturated is the non-blocking-readers
// race test: with producers saturating ingest, a large burst of view
// reads must finish promptly (they are atomic pointer loads), while
// epochs keep advancing underneath. Run under -race this also proves the
// view hand-off is properly synchronized.
func TestReadersNeverBlockWhileIngestSaturated(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 16, Shards: 2, Seed: 5, TrackLocal: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	views, err := est.StartViews(rept.ViewConfig{Interval: 5 * time.Millisecond, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			chunk := gen.Shuffle(gen.HolmeKim(400, 4, 0.3, seed), seed)
			for {
				select {
				case <-stop:
					return
				default:
					est.AddAll(chunk)
				}
			}
		}(uint64(p + 1))
	}

	firstEpoch := views.View().Epoch
	const readers, reads = 8, 50_000
	var total atomic.Uint64
	var rg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(id rept.NodeID) {
			defer rg.Done()
			var sum float64
			for i := 0; i < reads; i++ {
				v := views.View()
				sum += v.Global + v.LocalOf(id+rept.NodeID(i%1000))
				if cc, ok := v.CC(id); ok {
					sum += cc
				}
			}
			_ = sum
			total.Add(reads)
		}(rept.NodeID(r))
	}
	rg.Wait()
	elapsed := time.Since(start)

	if total.Load() != readers*reads {
		t.Fatalf("readers completed %d reads, want %d", total.Load(), readers*reads)
	}
	// 400k view reads are sub-second even on a loaded CI box; a minute
	// means readers blocked on ingest.
	if elapsed > time.Minute {
		t.Errorf("readers took %v under saturated ingest — the read path is blocking", elapsed)
	}
	// With ingest still saturated, the publisher must keep landing
	// epochs (readers often drain their loop faster than one interval,
	// so wait for the advance rather than sampling instantly).
	advance := time.Now().Add(10 * time.Second)
	for views.View().Epoch == firstEpoch && time.Now().Before(advance) {
		time.Sleep(time.Millisecond)
	}
	epochAdvanced := views.View().Epoch > firstEpoch
	close(stop)
	wg.Wait()
	if !epochAdvanced {
		t.Errorf("epoch stuck at %d while ingest ran — publisher starved", firstEpoch)
	}
}

// TestViewStalenessBound: the published view's age must stay within the
// configured interval plus slack (poll granularity + one barrier + CI
// noise), and once ingest quiesces the view must converge to the full
// stream prefix within the same bound.
func TestViewStalenessBound(t *testing.T) {
	const interval = 25 * time.Millisecond
	// Generous CI slack; the bound still catches a publisher stuck on a
	// barrier or ticking at the wrong rate.
	const slack = 2 * time.Second

	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Seed: 3, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if _, err := est.StartViews(rept.ViewConfig{Interval: interval}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := gen.ErdosRenyi(500, 4000, 7)
		for {
			select {
			case <-stop:
				return
			default:
				est.AddAll(chunk)
			}
		}
	}()

	deadline := time.Now().Add(3 * time.Second)
	var maxAge time.Duration
	for time.Now().Before(deadline) {
		if age := est.View().Age(); age > maxAge {
			maxAge = age
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if maxAge > interval+slack {
		t.Errorf("view age reached %v, bound is interval %v + slack %v", maxAge, interval, slack)
	}

	// Convergence after quiescence: the next epochs must catch up to the
	// final prefix without any Refresh.
	final := est.Processed()
	catchup := time.Now().Add(interval + slack)
	for est.View().Processed != final && time.Now().Before(catchup) {
		time.Sleep(time.Millisecond)
	}
	if got := est.View().Processed; got != final {
		t.Errorf("view stuck at processed %d, want %d after quiescence", got, final)
	}
}

// TestStartViewsLifecycle covers the API edges: double start errors, View
// before StartViews is nil, accessors fall back to barriers before views,
// and the last view outlives Close.
func TestStartViewsLifecycle(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.View() != nil || est.Views() != nil {
		t.Error("View/Views non-nil before StartViews")
	}
	est.Add(1, 2)
	if got := est.Global(); got != est.Snapshot().Global {
		t.Errorf("barrier-path Global() = %v, want snapshot value", got)
	}

	views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.StartViews(rept.ViewConfig{}); err == nil {
		t.Error("second StartViews succeeded")
	}
	if est.Views() != views || est.View() == nil {
		t.Error("Views/View do not expose the started publisher")
	}

	est.Add(2, 3)
	est.Add(1, 3)
	v := views.Refresh()
	if v.Processed != 3 || v.Epoch < 2 {
		t.Errorf("refreshed view = processed %d epoch %d, want 3 and >= 2", v.Processed, v.Epoch)
	}
	est.Close()
	if got := est.View(); got == nil || got.Epoch != v.Epoch {
		t.Error("last view not readable after Close")
	}
}

// TestConcurrentSnapshotRoundTripWithDegrees: checkpoints carry the
// degree table, and TrackDegrees is part of the restore contract in both
// directions.
func TestConcurrentSnapshotRoundTripWithDegrees(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 3, C: 9, Shards: 2, Seed: 4, TrackLocal: true, TrackDegrees: true}
	est, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.Shuffle(gen.HolmeKim(200, 4, 0.3, 6), 9)
	est.AddAll(edges)

	var buf bytes.Buffer
	if err := est.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	est.Close()

	restored, err := rept.ResumeConcurrent(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if _, err := restored.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	v := restored.Views().Refresh()
	got := v.Degrees()
	if got == nil {
		t.Fatal("restored view has no degree table")
	}
	deg := make(map[rept.NodeID]uint32)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	if !reflect.DeepEqual(got, deg) {
		t.Errorf("restored degree table has %d entries and differs from the stream's (%d entries)", len(got), len(deg))
	}

	// Mismatch both ways.
	noDeg := cfg
	noDeg.TrackDegrees = false
	if _, err := rept.ResumeConcurrent(noDeg, bytes.NewReader(buf.Bytes())); !errors.Is(err, rept.ErrSnapshotMismatch) {
		t.Errorf("restore with TrackDegrees off: err = %v, want ErrSnapshotMismatch", err)
	}
	plain, err := rept.NewConcurrent(noDeg)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := plain.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	plain.Close()
	if _, err := rept.ResumeConcurrent(cfg, bytes.NewReader(buf2.Bytes())); !errors.Is(err, rept.ErrSnapshotMismatch) {
		t.Errorf("restore degree-less snapshot with TrackDegrees on: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestViewRefreshAllocsIndependentOfNodes: publishing an epoch copies and
// merges flat per-node tables, so on a quiescent estimator Views.Refresh
// makes the same number of allocations at 5k and at 50k nodes — no
// allocation per node, per map bucket, or per table growth.
func TestViewRefreshAllocsIndependentOfNodes(t *testing.T) {
	allocs := func(nodes int) float64 {
		est, err := rept.NewConcurrent(rept.ConcurrentConfig{
			M: 4, C: 16, Shards: 2, Seed: 3, TrackLocal: true, TrackDegrees: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer est.Close()
		est.AddAll(gen.HolmeKim(nodes, 3, 0.5, 7))
		views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour, TopK: 50})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(views.Refresh().Local()); n < nodes/2 {
			t.Fatalf("%d-node stream gave only %d local estimates", nodes, n)
		}
		return testing.AllocsPerRun(20, func() { views.Refresh() })
	}
	small, large := allocs(5_000), allocs(50_000)
	if small != large {
		t.Errorf("Views.Refresh allocates %v times at 5k nodes and %v at 50k", small, large)
	}
}

// TestViewEpochsMatchFullMerge is the delta-publishing gate. A seeded
// schedule of inserts, churn (deletes and re-inserts), one burst in which
// most nodes gain class-sum entries, Downsample (which publishes its own
// epoch), Views.Close followed by a fresh StartViews, a WriteSnapshot +
// Resume, and deletions of the ranking leader's edges runs on a c < m, a
// c = c₁m and a c = c₁m + c₂ layout; the last carries η_v in its delta
// and skips Downsample, which η-tracking layouts refuse. After every
// epoch the view must equal a full merge at the same prefix: Local() the
// snapshot's local map in keys and values, TopK a full scan's ranking,
// Global bit for bit. No published view may change afterwards, the burst
// epoch must take a delta, and the schedule must reach every
// full-rebuild cause as well as delta epochs.
func TestViewEpochsMatchFullMerge(t *testing.T) {
	for _, lay := range []struct {
		name string
		m, c int
	}{{"c<m", 4, 3}, {"c=c1m", 4, 12}, {"c=c1m+c2", 4, 10}} {
		t.Run(lay.name, func(t *testing.T) { testViewEpochs(t, lay.m, lay.c) })
	}
}

func testViewEpochs(t *testing.T, m, c int) {
	etaLayout := c > m && c%m != 0
	cfg := rept.ConcurrentConfig{M: m, C: c, Shards: 2, Seed: 11, TrackLocal: true, FullyDynamic: true, TrackDegrees: true}
	start := func(est *rept.Concurrent) *rept.Views {
		t.Helper()
		views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour, TopK: 20})
		if err != nil {
			t.Fatal(err)
		}
		return views
	}
	est, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { est.Close() }()
	views := start(est)

	edges := gen.Shuffle(gen.HolmeKim(3000, 8, 0.8, 21), 5)
	rng := rand.New(rand.NewPCG(13, uint64(c)))
	var live, gone []rept.Edge
	next := 0
	insert := func() rept.Update {
		e := edges[next]
		next++
		live = append(live, e)
		return rept.Insert(e.U, e.V)
	}
	churn := func(n int) {
		ups := make([]rept.Update, 0, n)
		for len(ups) < n {
			switch r := rng.IntN(10); {
			case r < 3 && len(live) > 0:
				j := rng.IntN(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				gone = append(gone, e)
				ups = append(ups, rept.Remove(e.U, e.V))
			case r < 5 && len(gone) > 0:
				j := rng.IntN(len(gone))
				e := gone[j]
				gone[j] = gone[len(gone)-1]
				gone = gone[:len(gone)-1]
				live = append(live, e)
				ups = append(ups, rept.Insert(e.U, e.V))
			default:
				ups = append(ups, insert())
			}
		}
		est.ApplyAll(ups)
	}

	causes := map[string]int{}
	var prev *rept.View
	var prevLocal map[rept.NodeID]float64
	// check returns the epoch's rebuild cause.
	check := func(epoch int, what string, v *rept.View) string {
		t.Helper()
		snap := est.Snapshot()
		if math.Float64bits(v.Global) != math.Float64bits(snap.Global) {
			t.Fatalf("epoch %d (%s): view Global %v, full merge %v", epoch, what, v.Global, snap.Global)
		}
		local := v.Local()
		if !reflect.DeepEqual(local, snap.Local) {
			t.Fatalf("epoch %d (%s): view locals (%d nodes) differ from the full merge's (%d nodes)", epoch, what, len(local), len(snap.Local))
		}
		want := make([]rept.NodeStat, 0, len(snap.Local))
		for n, x := range snap.Local {
			want = append(want, rept.NodeStat{Node: n, Local: x})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Local != want[j].Local {
				return want[i].Local > want[j].Local
			}
			return want[i].Node < want[j].Node
		})
		want = want[:min(views.Config().TopK, len(want))]
		if len(v.TopK) != len(want) {
			t.Fatalf("epoch %d (%s): ranking of %d nodes, full scan %d", epoch, what, len(v.TopK), len(want))
		}
		for i, s := range v.TopK {
			if s.Node != want[i].Node || s.Local != want[i].Local {
				t.Fatalf("epoch %d (%s): rank %d is node %d (%v), full scan node %d (%v)", epoch, what, i, s.Node, s.Local, want[i].Node, want[i].Local)
			}
		}
		if prev != nil && !reflect.DeepEqual(prev.Local(), prevLocal) {
			t.Fatalf("epoch %d (%s): epoch %d's view changed after publication", epoch, what, prev.Epoch)
		}
		prev, prevLocal = v, local
		// The latest view_publish flight event is this epoch's and names
		// its cause.
		evs := est.Telemetry().Flight().Events()
		for i := len(evs) - 1; ; i-- {
			if i < 0 {
				t.Fatalf("epoch %d (%s): no view_publish flight event", epoch, what)
			}
			if ev := evs[i]; ev.Kind == "view_publish" {
				if ev.Value != v.Epoch {
					t.Fatalf("epoch %d (%s): latest view_publish event is for view epoch %d, want %d", epoch, what, ev.Value, v.Epoch)
				}
				causes[ev.Cause]++
				return ev.Cause
			}
		}
	}

	check(0, "start", views.View())
	for epoch := 1; epoch <= 60; epoch++ {
		what := "churn"
		n := 150
		switch epoch {
		case 20:
			if !etaLayout {
				what = "Downsample(1)"
				if err := est.Downsample(1); err != nil {
					t.Fatal(err)
				}
				check(epoch, what, views.View())
			}
		case 26:
			what = "Views.Close + StartViews"
			views.Close()
			last := views.View()
			if views.Refresh() != last {
				t.Fatal("a closed publisher published again")
			}
			views = start(est)
			check(epoch, "fresh StartViews", views.View())
		case 32:
			what = "WriteSnapshot + Resume"
			var buf bytes.Buffer
			if err := est.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			est.Close()
			if est, err = rept.ResumeConcurrent(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			views = start(est)
			check(epoch, "resumed StartViews", views.View())
		case 8:
			// Most nodes gain class-sum entries at once.
			what, n = "burst", 0
			ups := make([]rept.Update, 10_000)
			for i := range ups {
				ups[i] = insert()
			}
			est.ApplyAll(ups)
		case 44, 50:
			// Deleting the leader's edges weakens a ranked node.
			what = "leader's edges deleted"
			leader := views.View().TopK[0].Node
			var ups []rept.Update
			for i := 0; i < len(live); i++ {
				if e := live[i]; e.U == leader || e.V == leader {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					gone = append(gone, e)
					ups = append(ups, rept.Remove(e.U, e.V))
					i--
				}
			}
			est.ApplyAll(ups)
		}
		churn(n)
		// Only a first epoch or one after a Downsample hands over whole
		// class sums; a burst is a delta like any other epoch.
		if cause := check(epoch, what, views.Refresh()); what == "burst" && cause != "" && cause != "weakened" {
			t.Errorf("burst epoch rebuilt from whole class sums (cause %q)", cause)
		}
	}
	for _, cause := range []string{"", "first", "weakened"} {
		if causes[cause] == 0 {
			t.Errorf("no epoch with cause %q (causes %v)", cause, causes)
		}
	}
	if !etaLayout && causes["downsample"] == 0 {
		t.Errorf("no epoch with cause %q (causes %v)", "downsample", causes)
	}
	// A ranked node's fall alone does not force the full scan; only a
	// ranking that weakened below the previous weakest member does.
	if causes["weakened"] >= causes[""] {
		t.Errorf("%d weakened epochs against %d delta epochs, want fewer full scans than delta epochs (causes %v)", causes["weakened"], causes[""], causes)
	}
	t.Logf("epochs by cause: %v", causes)
}

// TestViewRefreshTakesOneBarrier: every epoch takes exactly one barrier —
// a steady churn epoch, a burst in which most nodes gain class-sum
// entries, the epoch a Downsample(1) publishes (whose engines hand over
// whole class sums), and the delta epoch after it.
func TestViewRefreshTakesOneBarrier(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 8, Shards: 2, Seed: 11, TrackLocal: true, FullyDynamic: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	edges := gen.Shuffle(gen.HolmeKim(6000, 8, 0.8, 21), 5)
	est.AddAll(edges[:30_000])
	views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour, TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	barriers := est.Telemetry().Pipeline().Barrier
	next := 30_000
	churn := func() {
		ups := make([]rept.Update, 0, 150)
		for _, e := range edges[next-50 : next] {
			ups = append(ups, rept.Remove(e.U, e.V))
		}
		for _, e := range edges[next : next+100] {
			ups = append(ups, rept.Insert(e.U, e.V))
		}
		next += 100
		est.ApplyAll(ups)
	}
	epoch := func(what string, wantBarriers uint64, step func()) {
		t.Helper()
		before, epochBefore := barriers.Count(), views.View().Epoch
		step()
		if got, e := barriers.Count()-before, views.View().Epoch; got != wantBarriers || e != epochBefore+1 {
			t.Errorf("%s: %d barriers and %d epochs, want %d barriers and one epoch", what, got, e-epochBefore, wantBarriers)
		}
	}
	epoch("churn", 1, func() { churn(); views.Refresh() })
	epoch("burst", 1, func() {
		est.AddAll(edges[next : next+15_000])
		next += 15_000
		views.Refresh()
	})
	epoch("Downsample(1) and its epoch", 2, func() {
		if err := est.Downsample(1); err != nil {
			t.Fatal(err)
		}
	})
	epoch("churn after Downsample", 1, func() { churn(); views.Refresh() })
}

// TestClosedViewsLeaveNoDelta: Views.Close stops every engine's class-sum
// delta, so an estimator whose views published a few epochs and were
// closed, and which then ingested more, holds exactly the counter bytes
// of a twin that never started views.
func TestClosedViewsLeaveNoDelta(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 4, C: 8, Shards: 2, Seed: 3, TrackLocal: true}
	viewed, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewed.Close()
	twin, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	edges := gen.Shuffle(gen.HolmeKim(20_000, 5, 0.5, 7), 3)
	feed := func(part []rept.Edge) {
		viewed.AddAll(part)
		twin.AddAll(part)
	}
	feed(edges[:50_000])
	views, err := viewed.StartViews(rept.ViewConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		feed(edges[50_000+i*1000 : 51_000+i*1000])
		views.Refresh()
	}
	views.Close()
	feed(edges[53_000:53_500])
	// A barrier on each, so the ledgers hold every batch.
	viewed.SampledEdges()
	twin.SampledEdges()
	if got, want := viewed.MemStats().ByComponent["counters"], twin.MemStats().ByComponent["counters"]; got != want {
		t.Fatalf("counters after Views.Close: %d B, %d B on a twin that never started views", got, want)
	}
}

// TestScalarReadsCopyNoPerNodeState: without views, Global,
// VarianceBound, SampledEdges, EtaSaturations and Local(v) each pay one
// barrier at which no engine copies its class sums and the degree
// tracker copies nothing, so on a state whose class sums take MiBs each
// call allocates under 64 KiB — and returns what the view built from a
// full merge at the same prefix says.
func TestScalarReadsCopyNoPerNodeState(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 8, Shards: 2, Seed: 3, TrackLocal: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(gen.HolmeKim(100_000, 5, 0.5, 3))
	if mib := float64(est.MemStats().ByComponent["counters"]) / (1 << 20); mib < 2 {
		t.Fatalf("class sums take %.2f MiB; the test needs MiB-sized ones", mib)
	}
	full := est.Snapshot().Local
	var nodes []rept.NodeID
	for n := range full {
		if len(nodes) == 5 {
			break
		}
		nodes = append(nodes, n)
	}
	perCall := func(f func()) uint64 {
		const calls = 10
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	const bound = 64 << 10
	var global, variance float64
	var sampled int
	var sat uint64
	locals := make([]float64, len(nodes))
	for name, f := range map[string]func(){
		"Global":         func() { global = est.Global() },
		"VarianceBound":  func() { variance = est.VarianceBound() },
		"SampledEdges":   func() { sampled = est.SampledEdges() },
		"EtaSaturations": func() { sat = est.EtaSaturations() },
		"Local":          func() { locals[0] = est.Local(nodes[0]) },
	} {
		if b := perCall(f); b > bound {
			t.Errorf("%s allocates %d B per call, bound %d", name, b, bound)
		}
	}
	for i, n := range nodes {
		locals[i] = est.Local(n)
	}

	views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	v := views.View()
	if global != v.Global || variance != est.VarianceBound() || sampled != v.SampledEdges || sat != v.EtaSaturations {
		t.Errorf("barrier reads (global %v, variance %v, sampled %d, saturations %d) differ from the full merge's (%v, %v, %d, %d)",
			global, variance, sampled, sat, v.Global, est.VarianceBound(), v.SampledEdges, v.EtaSaturations)
	}
	for i, n := range nodes {
		if locals[i] != full[n] || locals[i] != v.LocalOf(n) {
			t.Errorf("Local(%d) = %v on the barrier path, %v in the full merge", n, locals[i], full[n])
		}
	}
}

// TestViewDeltasUnderConcurrentDownsample: with the publisher epoching
// every millisecond while a producer ingests and another goroutine
// downsamples, no epoch may take a delta that spans a Downsample. Any
// lost or doubled update would persist into every later view, so once
// everything quiesces the refreshed view must equal a full merge.
func TestViewDeltasUnderConcurrentDownsample(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Shards: 2, Seed: 5, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	views, err := est.StartViews(rept.ViewConfig{Interval: time.Millisecond, TopK: 30})
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.HolmeKim(30_000, 6, 0.7, 8)
	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(edges); i += 200 {
			est.AddAll(edges[i:min(i+200, len(edges))])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-done:
			case <-time.After(15 * time.Millisecond):
			}
			if err := est.Downsample(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	v := views.Refresh()
	snap := est.Snapshot()
	if v.Global != snap.Global || !reflect.DeepEqual(v.Local(), snap.Local) {
		t.Fatalf("after concurrent Downsample: view global %v with %d locals, full merge %v with %d", v.Global, len(v.Local()), snap.Global, len(snap.Local))
	}
	if full := views.FullPublishes(); est.SampleShift() != 3 || full < 2 || v.Epoch <= full {
		t.Fatalf("schedule missed its cases: shift %d, %d of %d epochs full", est.SampleShift(), full, v.Epoch)
	}
	t.Logf("%d of %d epochs full", views.FullPublishes(), v.Epoch)
}
