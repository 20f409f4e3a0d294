package rept_test

import (
	"bytes"
	"testing"
	"time"

	"rept"
	"rept/internal/gen"
	"rept/internal/obs"
	"rept/internal/wal"
)

// scrape renders est's telemetry and parses it back.
func scrape(t *testing.T, est *rept.Concurrent) *obs.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// stageCount returns the observation count of a stage histogram.
func stageCount(t *testing.T, est *rept.Concurrent, stage string) float64 {
	t.Helper()
	name := "rept_stage_" + stage + "_seconds_count"
	v, ok := scrape(t, est).Sample(name)
	if !ok {
		t.Fatalf("%s missing from the exposition", name)
	}
	return v
}

// hasFlight reports whether est's flight recorder holds an event of kind.
func hasFlight(est *rept.Concurrent, kind string) bool {
	for _, ev := range est.Telemetry().Flight().Events() {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestEveryEstimatorInstrumented: an estimator built with no telemetry
// setting records every stage into a bundle of its own — ingest, the
// barrier, a Downsample, view publishing, and the write-ahead log with
// its compactions — and two estimators in one process render independent
// expositions.
func TestEveryEstimatorInstrumented(t *testing.T) {
	newEst := func() *rept.Concurrent {
		est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 4, C: 8, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(est.Close)
		return est
	}
	est, idle := newEst(), newEst()
	est.ApplyAll(rept.Inserts(gen.HolmeKim(500, 4, 0.4, 4)))
	est.Snapshot()
	for _, stage := range []string{"dispatch", "apply", "barrier"} {
		if n := stageCount(t, est, stage); n <= 0 {
			t.Errorf("%s count %v after ApplyAll and Snapshot, want > 0", stage, n)
		}
		if n := stageCount(t, idle, stage); n != 0 {
			t.Errorf("idle estimator's %s count %v, want 0", stage, n)
		}
	}
	if err := est.Downsample(1); err != nil {
		t.Fatal(err)
	}
	if !hasFlight(est, "downsample") {
		t.Error("no downsample flight event after Downsample(1)")
	}
	if _, err := est.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if n := stageCount(t, est, "view_publish"); n < 1 {
		t.Errorf("view_publish count %v after StartViews, want >= 1", n)
	}

	dur, err := rept.ResumeDurable(durableConfig(), rept.WALOptions{Backend: wal.NewMemBackend()})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := dur.ApplyAllDurable(durableStream(1000)); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"wal_append", "wal_fsync"} {
		if n := stageCount(t, dur, stage); n <= 0 {
			t.Errorf("%s count %v after ApplyAllDurable, want > 0", stage, n)
		}
	}
	if err := dur.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if !hasFlight(dur, "checkpoint") {
		t.Error("no checkpoint flight event after CompactWAL")
	}
}
