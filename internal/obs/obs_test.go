package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_events_total", "test")
	g := reg.Gauge("t_depth", "test")
	h := reg.Histogram("t_lat_seconds", "test")
	f := NewFlight(64)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(12.5) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(42 * time.Microsecond) }},
		{"Flight.Record", func() { f.Record(KindApply, 3, 512, time.Millisecond) }},
		{"Flight.Record(nil)", func() { (*Flight)(nil).Record(KindApply, 0, 0, 0) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	// Bucket 0 is exactly zero; bucket i covers [2^(i-1), 2^i).
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(1 << 40)
	h.Observe(math.MaxUint64) // overflow bucket
	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("bucket 0 = %d, want 1", got)
	}
	if got := h.buckets[1].Load(); got != 1 { // value 1
		t.Errorf("bucket 1 = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 2 { // values 2,3
		t.Errorf("bucket 2 = %d, want 2", got)
	}
	if got := h.buckets[3].Load(); got != 1 { // value 4
		t.Errorf("bucket 3 = %d, want 1", got)
	}
	if got := h.buckets[41].Load(); got != 1 { // 2^40
		t.Errorf("bucket 41 = %d, want 1", got)
	}
	if got := h.buckets[63].Load(); got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 90; i++ {
		h.Observe(1000) // ~1µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20) // ~1ms
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.5e-6 || p50 > 2e-6 {
		t.Errorf("p50 = %g, want ~1µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.5e-3 || p99 > 3e-3 {
		t.Errorf("p99 = %g, want ~1ms", p99)
	}
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}

// TestHistogramQuantileConcurrent is the regression test for the
// torn-read panic path: Quantile used to load the total count and then
// walk the bucket array, so observations landing between the two reads
// made the cumulative sum overshoot the rank and the loop fall off the
// end (returning garbage from the overflow bucket). Hammering Observe
// while calling Quantile must always land inside the observed range.
func TestHistogramQuantileConcurrent(t *testing.T) {
	h := &Histogram{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate the two magnitudes from the sequential test so
				// every quantile must land on one of the two bucket ranges.
				if (uint64(i)+seed)%2 == 0 {
					h.Observe(1000)
				} else {
					h.Observe(1 << 20)
				}
			}
		}(uint64(w))
	}
	for i := 0; i < 5000; i++ {
		for _, q := range []float64{0.01, 0.5, 0.999} {
			// Count is bumped AFTER the bucket in Observe, so a nonzero
			// count read before the call proves the snapshot inside
			// Quantile sees at least one bucket — zero is then a torn read.
			pre := h.Count()
			v := h.Quantile(q)
			if v == 0 && pre > 0 {
				t.Fatalf("Quantile(%g) = 0 with %d observations", q, pre)
			}
			if v != 0 && (v < 0.5e-6 || v > 3e-3) {
				t.Fatalf("Quantile(%g) = %g, outside every observed bucket", q, v)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_events_total", "Events seen.")
	c.Add(41)
	c.Inc()
	g := reg.Gauge("t_depth", "Queue depth.")
	g.Set(7.25)
	reg.GaugeFunc("t_live", "Live things.", func() float64 { return 3 })
	reg.CounterFunc("t_applied_total", "Applied.", func() uint64 { return 9 })
	h := reg.Histogram("t_lat_seconds", "Latency.")
	h.Observe(0)
	h.Observe(1500)
	h.Observe(3_000_000)
	vec := reg.CounterVec("t_req_total", "Requests.", "endpoint")
	vec.With("/edges").Add(5)
	vec.With(`/we"ird\path`).Inc()
	gv := reg.GaugeVec("t_q", "Per-shard depth.", "shard")
	gv.With("0").SetInt(4)
	gv.Func("1", func() float64 { return 2 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Counters must render as integers (legacy test contract).
	if !strings.Contains(text, "t_events_total 42\n") {
		t.Errorf("counter not rendered as integer:\n%s", text)
	}
	if !strings.Contains(text, `t_req_total{endpoint="/edges"} 5`+"\n") {
		t.Errorf("labeled counter missing:\n%s", text)
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Errorf("histogram +Inf bucket missing:\n%s", text)
	}

	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if errs := exp.Validate(); len(errs) != 0 {
		t.Fatalf("conformance: %v\n%s", errs, text)
	}
	if v, ok := exp.Sample("t_events_total"); !ok || v != 42 {
		t.Errorf("t_events_total = %v %v", v, ok)
	}
	if v, ok := exp.Sample("t_depth"); !ok || v != 7.25 {
		t.Errorf("t_depth = %v %v", v, ok)
	}
	hf := exp.Family("t_lat_seconds")
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("histogram family missing")
	}
	if v, ok := exp.Sample("t_lat_seconds_count"); !ok || v != 3 {
		t.Errorf("histogram count = %v %v, want 3", v, ok)
	}
	// Round-trip a second scrape into the same registry buffer.
	var sb2 strings.Builder
	if err := reg.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Errorf("second scrape differs from first")
	}
}

func TestRegistryPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.Gauge("Bad-Name", "x") }},
		{"empty help", func(r *Registry) { r.Gauge("t_ok", "") }},
		{"duplicate", func(r *Registry) { r.Gauge("t_dup", "x"); r.Counter("t_dup", "x") }},
		{"counter without _total", func(r *Registry) { r.Counter("t_events", "x") }},
		{"gauge with _total", func(r *Registry) { r.Gauge("t_events_total", "x") }},
		{"bad label", func(r *Registry) { r.CounterVec("t_v_total", "x", "Bad Label") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"missing help",
			"# TYPE x_total counter\nx_total 1\n",
			"missing # HELP",
		},
		{
			"missing type",
			"# HELP x_total h\nx_total 1\n",
			"missing # TYPE",
		},
		{
			"bad name",
			"# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n",
			"does not match",
		},
		{
			"counter suffix",
			"# HELP x h\n# TYPE x counter\nx 1\n",
			"must end in _total",
		},
		{
			"gauge suffix",
			"# HELP x_total h\n# TYPE x_total gauge\nx_total 1\n",
			"must not end in _total",
		},
		{
			"duplicate series",
			"# HELP x h\n# TYPE x gauge\nx 1\nx 2\n",
			"duplicate series",
		},
		{
			"histogram missing inf",
			"# HELP h_s h\n# TYPE h_s histogram\nh_s_bucket{le=\"1\"} 1\nh_s_sum 1\nh_s_count 1\n",
			"missing le=\"+Inf\"",
		},
		{
			"histogram not cumulative",
			"# HELP h_s h\n# TYPE h_s histogram\nh_s_bucket{le=\"1\"} 5\nh_s_bucket{le=\"+Inf\"} 3\nh_s_sum 1\nh_s_count 3\n",
			"not cumulative",
		},
		{
			"histogram inf != count",
			"# HELP h_s h\n# TYPE h_s histogram\nh_s_bucket{le=\"1\"} 1\nh_s_bucket{le=\"+Inf\"} 5\nh_s_sum 1\nh_s_count 4\n",
			"!= _count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := ParseExposition(strings.NewReader(tc.text))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			errs := exp.Validate()
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("want violation containing %q, got %v", tc.want, errs)
			}
		})
	}
}

func TestParseRejectsSyntax(t *testing.T) {
	for _, text := range []string{
		"x{l=\"unterminated} 1\n",
		"x notanumber\n",
		"x{l=} 1\n",
		"{noname} 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("ParseExposition(%q): expected error", text)
		}
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlight(16)
	for i := 1; i <= 40; i++ {
		f.Record(KindParse, int32(i%4), uint64(i), time.Duration(i))
	}
	ev := f.Events()
	if len(ev) != 16 {
		t.Fatalf("got %d events, want 16", len(ev))
	}
	for i, e := range ev {
		want := uint64(25 + i) // 40-16+1 .. 40
		if e.Seq != want {
			t.Errorf("event %d: seq=%d, want %d", i, e.Seq, want)
		}
		if e.Value != want {
			t.Errorf("event %d: value=%d, want %d", i, e.Value, want)
		}
		if e.Kind != "parse" {
			t.Errorf("event %d: kind=%q", i, e.Kind)
		}
	}
	if f.Len() != 40 {
		t.Errorf("Len = %d, want 40", f.Len())
	}
}

// TestFlightCause: an event recorded with a cause decodes with its kind,
// shard and value intact and the cause's wire name; Record leaves the
// cause empty, so the JSON omits it.
func TestFlightCause(t *testing.T) {
	f := NewFlight(16)
	f.RecordCause(KindViewPublish, -1, 7, time.Millisecond, CauseWeakened)
	f.Record(KindViewPublish, -1, 8, time.Millisecond)
	ev := f.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if e := ev[0]; e.Kind != "view_publish" || e.Shard != -1 || e.Value != 7 || e.Cause != "weakened" {
		t.Errorf("caused event decoded as %+v", e)
	}
	if e := ev[1]; e.Kind != "view_publish" || e.Value != 8 || e.Cause != "" {
		t.Errorf("plain event decoded as %+v", e)
	}
	for c := CauseNone; c < causeMax; c++ {
		if c != CauseNone && c.String() == "" || c.String() == "unknown" {
			t.Errorf("cause %d has no wire name", c)
		}
	}
}

func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f.Record(KindApply, int32(w), uint64(i), 0)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		ev := f.Events()
		for j := 1; j < len(ev); j++ {
			if ev[j].Seq <= ev[j-1].Seq {
				t.Fatalf("events not strictly ordered: %d then %d", ev[j-1].Seq, ev[j].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestPipelineRegistersStandardNames(t *testing.T) {
	reg := NewRegistry()
	p := NewPipeline(reg)
	p.Parse.Observe(1000)
	p.BatchSizes.Observe(512)
	p.ShardApplied.With(ShardLabel(0)).Add(10)
	p.ShardQueueDepth.With(ShardLabel(0)).SetInt(2)
	RegisterRuntime(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if errs := exp.Validate(); len(errs) != 0 {
		t.Fatalf("conformance: %v", errs)
	}
	for _, name := range []string{
		"rept_stage_parse_seconds",
		"rept_stage_dispatch_seconds",
		"rept_stage_queue_wait_seconds",
		"rept_stage_apply_seconds",
		"rept_stage_barrier_seconds",
		"rept_stage_wal_append_seconds",
		"rept_stage_wal_fsync_seconds",
		"rept_stage_view_publish_seconds",
		"rept_batch_events",
		"rept_shard_queue_depth",
		"rept_shard_events_applied_total",
		"rept_go_goroutines",
		"rept_go_gc_pause_seconds_total",
	} {
		if exp.Family(name) == nil {
			t.Errorf("standard family %s missing", name)
		}
	}
}
