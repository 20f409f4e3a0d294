package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"rept"
	"rept/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 1000 down to 1
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
	} {
		v, beyond := percentile(xs, c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(q=%v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if _, err := quantile("x", xs, 0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := quantile("x", xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestWindowedMedian(t *testing.T) {
	t0 := time.Unix(0, 0)
	end := t0.Add(5 * time.Second)
	var xs []float64
	var at []time.Time
	for s := 0; s < segments; s++ {
		for i := 0; i < 21; i++ {
			x := float64(s + 1) // part s answers in s+1 ms
			if s == 4 && i < 15 {
				x = 900 // a burst in the last part
			}
			xs = append(xs, x)
			at = append(at, t0.Add(time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	v, err := windowed("x", xs, at, t0, end, 0.5)
	if err != nil || v != 3 {
		t.Errorf("windowed median = %v, %v; want 3 (the middle part's median)", v, err)
	}
	if _, err := windowed("x", xs[:21*segments-2], at, t0, end, 0.5); err == nil {
		t.Error("a part of 19 samples has 9 beyond its median and must be refused")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: covered once
		{Name: "c", Parent: 1, Start: 20, End: 25},  // a's child
		{Name: "d", Parent: 0, Start: 90, End: 120}, // outlives its parent: clipped
		{Name: "a", Parent: -1, Start: 200, End: 210},
	}
	want := map[string]int64{"request": 100 - 50 - 10, "a": 30 - 5 + 10, "b": 30, "c": 5, "d": 30}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want exactly %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"ingest_eps", "shard.barrier_ms", "mem.wal_buffers_mib", "0-x", strings.Repeat("a", 64)} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := make(map[string]bool)
	for _, d := range metricDefs {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("declared metric %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// TestExpositionDelta scrapes a real telemetry registry twice, as the
// benchmark scrapes reptserve around its window, and checks the deltas.
func TestExpositionDelta(t *testing.T) {
	tele := rept.NewTelemetry()
	pipe := tele.Pipeline()
	vec := tele.Registry().CounterVec("rept_http_requests_total", "HTTP requests served per endpoint.", "endpoint")
	edges, metrics := vec.With("/edges"), vec.With("/metrics")
	scrape := func() *obs.Exposition {
		metrics.Inc() // reptserve counts the scrape before rendering it
		var buf bytes.Buffer
		if err := tele.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := obs.ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pipe.Parse.ObserveDuration(time.Millisecond)
	edges.Inc()
	before := scrape()
	for i := 0; i < 3; i++ {
		pipe.Parse.ObserveDuration(2 * time.Millisecond)
		edges.Inc()
	}
	after := scrape()

	if d := delta(before, after, "rept_stage_parse_seconds_count"); d != 3 {
		t.Errorf("parse count delta = %v, want 3", d)
	}
	if d := delta(before, after, "rept_stage_parse_seconds_sum"); math.Abs(d-0.006) > 1e-9 {
		t.Errorf("parse sum delta = %v, want 0.006", d)
	}
	if d := delta(before, after, "rept_http_requests_total"); d != 4 {
		t.Errorf("all-endpoint request delta = %v, want 4", d)
	}
	if d := series(after, "rept_http_requests_total", "endpoint", "/edges") -
		series(before, "rept_http_requests_total", "endpoint", "/edges"); d != 3 {
		t.Errorf("/edges request delta = %v, want 3", d)
	}
	if d := delta(before, after, "rept_wal_checkpoint_events_total"); d != 0 {
		t.Errorf("absent series delta = %v, want 0", d)
	}
}
