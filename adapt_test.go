package rept_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"rept"
	"rept/internal/control"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/graph"
)

// TestAccuracyAfterDownsample is the statistical gate for the adaptive
// control plane's one irreversible action: over 40 independent hash-family
// seeds on a churn stream with a mid-stream Downsample(1), the estimator
// must still match the exact net triangle count of the final live graph.
// The adaptation rescales every counter by the REPT unbiasing factor and
// re-partitions the sample under the tightened keep filter, so any error
// in the rescale arithmetic, the eviction sweep, or the effective-m
// plumbing shifts the error distribution far outside these gates.
//
// The variance windows bracket the mixed process: events processed before
// the adaptation contribute at the original partition size m and are then
// thinned, events after it at m_eff = 2m, so the empirical MSE must sit
// between the closed-form variance at m (scaled by the usual 0.35 noise
// floor) and the variance at m_eff (scaled by the usual 2.2 ceiling). The
// bias gate is 4.5 standard errors at m_eff. Stream and seeds are fixed;
// the test is fully deterministic.
func TestAccuracyAfterDownsample(t *testing.T) {
	base := gen.Shuffle(gen.HolmeKim(800, 5, 0.35, 77), 123)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, ReinsertFrac: 0.85, Seed: 99})
	ref := exper.DynCountExact(ups, false)
	if frac := float64(ref.Deletes) / float64(ref.Events); frac < 0.30 {
		t.Fatalf("deletion fraction = %.3f, need >= 0.30 for a meaningful churn gate", frac)
	}
	tau := float64(ref.Tau)
	if tau < 500 {
		t.Fatalf("net graph too sparse for a meaningful bound: τ = %v", tau)
	}
	cut := len(ups) * 3 / 5

	const seeds = 40
	cases := []struct {
		name string
		m, c int
	}{
		// Only downsample-legal layouts (no η tracking): full groups and a
		// single undersized group. The partial-group combination refuses
		// Downsample by design — see TestDownsampleRefusedOnEtaConfig.
		{"FullGroups_M8_C32", 8, 32},
		{"SingleGroup_M16_C8", 16, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			varBase := rept.TheoreticalVariance(tc.m, tc.c, ref.A, ref.B/2)
			varEff := rept.TheoreticalVariance(2*tc.m, tc.c, ref.A, ref.B/2)
			if !(varBase > 0) || !(varEff > varBase) {
				t.Fatalf("variance bounds: base %v, effective %v", varBase, varEff)
			}
			var sumErr, sumSq float64
			for seed := int64(1); seed <= seeds; seed++ {
				est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: tc.m, C: tc.c, Seed: seed, FullyDynamic: true})
				if err != nil {
					t.Fatal(err)
				}
				est.ApplyAll(ups[:cut])
				if err := est.Downsample(1); err != nil {
					t.Fatal(err)
				}
				est.ApplyAll(ups[cut:])
				if got := est.SampleShift(); got != 1 {
					t.Fatalf("SampleShift = %d after Downsample(1), want 1", got)
				}
				d := est.Global() - tau
				est.Close()
				sumErr += d
				sumSq += d * d
			}
			mse := sumSq / seeds
			bias := sumErr / seeds
			t.Logf("net τ=%.0f A=%.0f B=%.0f: MSE = %.1f (Var[m]=%.1f, Var[m_eff]=%.1f), bias = %.1f",
				tau, ref.A, ref.B, mse, varBase, varEff, bias)

			if mse > 2.2*varEff {
				t.Errorf("empirical MSE %.1f exceeds post-adaptation variance %.1f by ratio %.2f (> 2.2): the downsample rescale has regressed", mse, varEff, mse/varEff)
			}
			if mse < 0.35*varBase {
				t.Errorf("empirical MSE %.1f implausibly below pre-adaptation variance %.1f (ratio %.2f < 0.35): sampling is likely broken", mse, varBase, mse/varBase)
			}
			if gate := 4.5 * math.Sqrt(varEff/seeds); math.Abs(bias) > gate {
				t.Errorf("empirical bias %.1f exceeds %.1f (4.5 standard errors): the estimator is no longer unbiased after adaptation", bias, gate)
			}
		})
	}
}

// TestAccuracyLocalAfterDownsample is the statistical gate for the local
// estimates across the control plane's adaptation: over 40 hash-family
// seeds with a Downsample(1) at 3/5 of the stream, the mean of
// Σ_v τ̂_v / Σ_v τ_v, and of the same ratio over the nodes with
// 10 ≤ τ_v < 50, must lie within 4.5 standard errors of 1, on an
// insert-only stream and on its churn. Downsample rescales every class
// sum Σ τ⁽ⁱ⁾_v by 1/4 with stochastic rounding, which keeps each one's
// expectation; rounding each small counter half away from zero instead
// turned a quarter of 1 into 0 and read 0.76–0.85 here, 6.9 to 39
// standard errors low. Stream and seeds are fixed; the test is fully
// deterministic.
func TestAccuracyLocalAfterDownsample(t *testing.T) {
	base := gen.Shuffle(gen.HolmeKim(3000, 6, 0.5, 77), 123)
	streams := []struct {
		name string
		ups  []rept.Update
	}{
		{"InsertOnly", graph.Inserts(base)},
		{"Churn", exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, ReinsertFrac: 0.85, Seed: 99})},
	}
	const seeds = 40
	for _, st := range streams {
		exact := exper.DynCountExact(st.ups, true).TauV
		inBucket := func(v rept.NodeID) bool { return exact[v] >= 10 && exact[v] < 50 }
		var total, bucket float64
		for v, x := range exact {
			total += float64(x)
			if inBucket(v) {
				bucket += float64(x)
			}
		}
		if bucket < 1000 {
			t.Fatalf("%s: the 10 ≤ τ_v < 50 bucket holds only %v triangle incidences", st.name, bucket)
		}
		cut := len(st.ups) * 3 / 5
		for _, lay := range []struct{ m, c int }{{8, 32}, {16, 8}} {
			t.Run(fmt.Sprintf("%s_M%d_C%d", st.name, lay.m, lay.c), func(t *testing.T) {
				var all, mid []float64
				for seed := int64(1); seed <= seeds; seed++ {
					est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: lay.m, C: lay.c, Seed: seed, TrackLocal: true, FullyDynamic: true})
					if err != nil {
						t.Fatal(err)
					}
					est.ApplyAll(st.ups[:cut])
					if err := est.Downsample(1); err != nil {
						t.Fatal(err)
					}
					est.ApplyAll(st.ups[cut:])
					var sumAll, sumMid float64
					for v, x := range est.Locals() {
						sumAll += x
						if inBucket(v) {
							sumMid += x
						}
					}
					est.Close()
					all = append(all, sumAll/total)
					mid = append(mid, sumMid/bucket)
				}
				for _, r := range []struct {
					name   string
					ratios []float64
				}{{"Σ τ̂_v / Σ τ_v", all}, {"10 ≤ τ_v < 50", mid}} {
					mean, se := meanSE(r.ratios)
					t.Logf("%s: mean ratio %.3f ± %.3f", r.name, mean, se)
					if math.Abs(mean-1) > 4.5*se {
						t.Errorf("%s: mean ratio %.3f is %.1f standard errors from 1: local estimates are biased after Downsample", r.name, mean, math.Abs(mean-1)/se)
					}
				}
			})
		}
	}
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	mean = sum / n
	return mean, math.Sqrt((sumSq/n - mean*mean) / (n - 1))
}

// TestDownsampleRefusedOnEtaConfig: a layout with a partial processor
// group tracks η, whose per-edge closing counters cannot be rescaled, so
// Downsample must refuse with ErrEtaDownsample — and leave the estimator
// fully usable.
func TestDownsampleRefusedOnEtaConfig(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 6, C: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(gen.HolmeKim(200, 4, 0.3, 9))
	if err := est.Downsample(1); !errors.Is(err, rept.ErrEtaDownsample) {
		t.Fatalf("Downsample on an η config = %v, want ErrEtaDownsample", err)
	}
	if got := est.SampleShift(); got != 0 {
		t.Fatalf("SampleShift = %d after a refused Downsample, want 0", got)
	}
	if g := est.Global(); !(g > 0) {
		t.Fatalf("estimator unusable after refused Downsample: Global = %v", g)
	}
}

// TestDownsampleRepublishesIdleView: a Downsample advances no event
// count, so on an idle stream the publisher's own triggers never fire;
// the view must still move to the thinned sample before Downsample
// returns, or /estimate, /topk and rept_sampled_edges keep answering
// from the sample before the adaptation.
func TestDownsampleRepublishesIdleView(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Seed: 2, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(gen.HolmeKim(3000, 6, 0.4, 4))
	views, err := est.StartViews(rept.ViewConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	before := views.View()
	if err := est.Downsample(1); err != nil {
		t.Fatal(err)
	}
	v := views.View()
	if want := est.SampledEdges(); v.SampledEdges != want || want >= before.SampledEdges {
		t.Fatalf("view reports %d sampled edges after Downsample, barrier %d, before %d", v.SampledEdges, want, before.SampledEdges)
	}
	if v.Epoch <= before.Epoch {
		t.Fatalf("view epoch %d after Downsample, want past %d", v.Epoch, before.Epoch)
	}
}

// TestDownsampleFlightEvent: each Downsample leaves one downsample flight
// event carrying the new cumulative shift.
func TestDownsampleFlightEvent(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(gen.HolmeKim(500, 4, 0.4, 4))
	if err := est.Downsample(1); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, ev := range est.Telemetry().Flight().Events() {
		if ev.Kind == "downsample" {
			got = append(got, ev.Value)
		}
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("downsample flight events carry shifts %v, want exactly [1]", got)
	}
}

// TestMemStatsSurface: the public accounting surface — component
// breakdown, process-memory total, and the sampling diagnostics the
// controller publishes.
func TestMemStatsSurface(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 8, Seed: 5, TrackLocal: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	est.AddAll(gen.Shuffle(gen.HolmeKim(1000, 6, 0.4, 3), 13))
	est.Snapshot() // barrier: pending capacity transitions land

	ms := est.MemStats()
	for _, comp := range []string{"adjacency", "counters", "degrees", "rings"} {
		if ms.ByComponent[comp] <= 0 {
			t.Errorf("component %q = %d bytes after ingest, want > 0", comp, ms.ByComponent[comp])
		}
	}
	var heap int64
	for comp, b := range ms.ByComponent {
		if comp != "wal_segments" {
			heap += b
		}
	}
	if ms.HeapBytes != heap {
		t.Errorf("HeapBytes = %d, component sum = %d", ms.HeapBytes, heap)
	}
	if ms.WALSegmentBytes != 0 {
		t.Errorf("WALSegmentBytes = %d without a WAL, want 0", ms.WALSegmentBytes)
	}
	if got, tot := est.MemTotalBytes(), ms.HeapBytes; got != tot {
		t.Errorf("MemTotalBytes = %d, MemStats.HeapBytes = %d", got, tot)
	}

	if p := est.SampleProbability(); p != 0.25 {
		t.Errorf("SampleProbability = %v at M=4 shift=0, want 0.25", p)
	}
	vb0 := est.VarianceBound()
	if !(vb0 > 0) {
		t.Fatalf("VarianceBound = %v on a triangle-rich stream, want > 0", vb0)
	}
	if err := est.Downsample(1); err != nil {
		t.Fatal(err)
	}
	if p := est.SampleProbability(); p != 0.125 {
		t.Errorf("SampleProbability = %v after Downsample(1), want 0.125", p)
	}
	if vb1 := est.VarianceBound(); !(vb1 > vb0) {
		t.Errorf("VarianceBound = %v after Downsample(1), want > pre-adaptation %v (accuracy was traded for memory)", vb1, vb0)
	}
}

// TestControllerChurnSoak drives the real estimator under the real
// controller on a churn stream with a budget between the incompressible
// floor and the unconstrained footprint: the controller must adapt at
// least once, the ledger total must end at or under the budget, and the
// published variance bound must record the accuracy that was traded.
func TestControllerChurnSoak(t *testing.T) {
	base := gen.Shuffle(gen.HolmeKim(2500, 8, 0.4, 21), 5)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.25, ReinsertFrac: 0.7, Seed: 8})

	build := func() *rept.Concurrent {
		est, err := rept.NewConcurrent(rept.ConcurrentConfig{
			M: 4, C: 8, Seed: 17, TrackLocal: true, FullyDynamic: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	// Calibration pass: the unconstrained footprint and its sample-bearing
	// share fix a budget that genuinely forces adaptation yet stays above
	// the incompressible floor (rings, batches, masks).
	ref := build()
	ref.ApplyAll(ups)
	ref.Snapshot()
	ms := ref.MemStats()
	full := ms.HeapBytes
	sampleBytes := ms.ByComponent["adjacency"] + ms.ByComponent["counters"]
	ref.Close()
	if sampleBytes <= 0 || full <= sampleBytes {
		t.Fatalf("calibration: full=%d sample-bearing=%d", full, sampleBytes)
	}
	budget := full - sampleBytes/2
	t.Logf("unconstrained footprint %d bytes (%d sample-bearing); budget %d", full, sampleBytes, budget)

	est := build()
	defer est.Close()
	vb0 := -1.0
	ctrl := control.New(control.Config{
		Budget:      budget,
		MemTotal:    est.MemTotalBytes,
		Processed:   est.Processed,
		SampleShift: est.SampleShift,
		Downsample:  est.Downsample,
	})
	const chunks = 20
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(ups)/chunks, (i+1)*len(ups)/chunks
		est.ApplyAll(ups[lo:hi])
		est.Snapshot() // quiesce: Downsample from a tick needs a drained pipeline
		if vb0 < 0 && i == chunks/2 {
			vb0 = est.VarianceBound()
		}
		ctrl.Tick()
	}
	// Drain any residual pressure the tail of the stream re-created.
	for i := 0; i < 8 && est.MemTotalBytes() > budget; i++ {
		est.Snapshot()
		ctrl.Tick()
	}

	if got := ctrl.Adaptations(); got < 1 {
		t.Fatalf("Adaptations = %d under a %d-byte budget (unconstrained %d), want >= 1", got, budget, full)
	}
	if got := est.SampleShift(); got < 1 {
		t.Fatalf("SampleShift = %d after %d adaptations, want >= 1", got, ctrl.Adaptations())
	}
	if got := est.MemTotalBytes(); got > budget {
		t.Errorf("ledger total %d exceeds budget %d after the soak", got, budget)
	}
	if vb := est.VarianceBound(); vb0 > 0 && !(vb > vb0) {
		t.Errorf("VarianceBound = %v after adaptation, want > mid-stream %v", vb, vb0)
	}
	st := ctrl.Status()
	if st.SampleShift != est.SampleShift() {
		t.Errorf("controller reports shift %d, estimator %d", st.SampleShift, est.SampleShift())
	}
}
