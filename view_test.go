package rept_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
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
	snap := est.SnapshotNow()

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
	if got := est.Global(); got != est.SnapshotNow().Global {
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
