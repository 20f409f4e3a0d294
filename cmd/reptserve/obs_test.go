package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rept"
	"rept/internal/gen"
	"rept/internal/obs"
)

// scrapeMetrics GETs /metrics and parses it with the in-repo exposition
// parser, failing the test on any syntax error.
func scrapeMetrics(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q, want text/plain", ct)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return exp
}

// requireConformant runs the semantic validator over a parsed scrape and
// fails on every violation.
func requireConformant(t *testing.T, exp *obs.Exposition) {
	t.Helper()
	for _, err := range exp.Validate() {
		t.Errorf("exposition conformance: %v", err)
	}
}

// histCount returns the _count of the named histogram family, or 0.
func histCount(exp *obs.Exposition, name string) float64 {
	v, ok := exp.Sample(name + "_count")
	if !ok {
		return 0
	}
	return v
}

// TestMetricsConformance ingests a stream through HTTP and checks the
// full /metrics scrape: syntactic and semantic exposition-format
// conformance, the retyped view gauges, the renamed all-endpoints
// counter with its deprecated alias, and non-zero stage histograms for
// every stage a non-durable server exercises.
func TestMetricsConformance(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 2, C: 4, Shards: 2, Seed: 1, Telemetry: rept.NewTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	defer func() {
		ts.Close()
		est.Close()
	}()
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(400))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// A fresh view epoch exercises barrier + view publish again and gives
	// the scrape a non-trivial view to report.
	if resp := getJSON(t, ts.URL+"/estimate?fresh=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}

	exp := scrapeMetrics(t, ts.URL)
	requireConformant(t, exp)

	// The legacy series survive the registry rewrite with their exact
	// names and integer rendering.
	if v, ok := exp.Sample("rept_processed_edges_total"); !ok || v != 1200 {
		t.Errorf("rept_processed_edges_total = %v (present=%v), want 1200", v, ok)
	}
	for name, typ := range map[string]string{
		"rept_processed_edges_total": "counter",
		"rept_view_epoch":            "gauge", // retyped from counter: resets on restore
		"rept_view_processed_edges":  "gauge", // retyped from counter: resets on restore
		"rept_view_age_seconds":      "gauge",
		"rept_sampled_edges":         "gauge",
		"rept_http_requests_total":   "counter",
		"rept_go_goroutines":         "gauge",
		"rept_stage_parse_seconds":   "histogram",
	} {
		f := exp.Family(name)
		if f == nil {
			t.Errorf("family %s missing from scrape", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s TYPE = %s, want %s", name, f.Type, typ)
		}
	}

	// The all-endpoints counter was renamed to a conforming name; the
	// deprecated rept_http_requests_total_all alias was kept exactly one
	// release and must now be gone from the exposition.
	if _, ok := exp.Sample("rept_http_requests_all_total"); !ok {
		t.Fatal("renamed counter rept_http_requests_all_total missing")
	}
	if f := exp.Family("rept_http_requests_total_all"); f != nil {
		t.Errorf("deprecated alias rept_http_requests_total_all still exposed: %+v", f)
	}

	// The batch-size histogram registers with every telemetry bundle and
	// records on each delivered batch ticket.
	if f := exp.Family("rept_batch_events"); f == nil || f.Type != "histogram" {
		t.Errorf("rept_batch_events must be a histogram family, got %+v", f)
	} else if histCount(exp, "rept_batch_events") == 0 {
		t.Error("rept_batch_events_count = 0 after ingest, want > 0")
	}

	// Every stage a non-durable ingest exercises must have recorded:
	// parse (the HTTP handler), dispatch + queue wait + apply (the shard
	// fan-out), barrier + view publish (the fresh epoch above).
	for _, h := range []string{
		"rept_stage_parse_seconds",
		"rept_stage_dispatch_seconds",
		"rept_stage_queue_wait_seconds",
		"rept_stage_apply_seconds",
		"rept_stage_barrier_seconds",
		"rept_stage_view_publish_seconds",
	} {
		if histCount(exp, h) == 0 {
			t.Errorf("%s_count = 0 after ingest, want > 0", h)
		}
	}

	// Per-shard series carry one child per shard.
	f := exp.Family("rept_shard_events_applied_total")
	if f == nil {
		t.Fatal("rept_shard_events_applied_total missing")
	}
	var total float64
	for i := range f.Samples {
		if _, ok := f.Samples[i].Get("shard"); !ok {
			t.Errorf("per-shard sample without shard label: %+v", f.Samples[i])
		}
		total += f.Samples[i].Value
	}
	// Every shard applies the whole broadcast stream.
	if want := float64(1200 * est.Shards()); total != want {
		t.Errorf("sum rept_shard_events_applied_total = %v, want %v", total, want)
	}

	// A second scrape must still parse and validate (collect hooks are
	// re-entrant) and counters must be monotone.
	exp2 := scrapeMetrics(t, ts.URL)
	requireConformant(t, exp2)
	if v1, _ := exp.Sample("rept_http_requests_all_total"); true {
		if v2, _ := exp2.Sample("rept_http_requests_all_total"); v2 <= v1 {
			t.Errorf("request counter not monotone across scrapes: %v then %v", v1, v2)
		}
	}
}

// TestMetricsConformanceDurable boots a WAL-backed server in-process and
// checks that the WAL series and the append/fsync stage histograms are
// live and the scrape stays conformant.
func TestMetricsConformanceDurable(t *testing.T) {
	est, err := rept.ResumeDurable(rept.ConcurrentConfig{
		M: 2, C: 4, Seed: 1, Telemetry: rept.NewTelemetry(),
	}, rept.WALOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	defer func() {
		ts.Close()
		est.Close()
	}()
	ir, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(100)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if !ir.Durable {
		t.Fatal("ingest response does not report durable=true")
	}
	settle(t, ts.URL)

	exp := scrapeMetrics(t, ts.URL)
	requireConformant(t, exp)
	if v, ok := exp.Sample("rept_wal_durable_events_total"); !ok || v != 300 {
		t.Errorf("rept_wal_durable_events_total = %v (present=%v), want 300", v, ok)
	}
	for _, h := range []string{"rept_stage_wal_append_seconds", "rept_stage_wal_fsync_seconds"} {
		if histCount(exp, h) == 0 {
			t.Errorf("%s_count = 0 after durable ingest, want > 0", h)
		}
	}
}

// TestReadyzEndpoint checks the readiness lifecycle: ready after
// construction, drained (503) after Stop — while /healthz keeps
// answering 200 throughout, which is exactly the liveness/readiness
// split a load balancer needs.
func TestReadyzEndpoint(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	srv := NewServer(est)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ready struct {
		Status    string `json:"status"`
		Epoch     uint64 `json:"epoch"`
		Processed uint64 `json:"processed"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz: status %d, want 200", resp.StatusCode)
	}
	if ready.Status != "ready" || ready.Epoch == 0 {
		t.Errorf("readyz = %+v, want status ready with a non-zero epoch", ready)
	}

	srv.Stop()
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz after Stop: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after Stop: status %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestFlightEndpoint ingests a stream and dumps the flight recorder: the
// dump must be ordered by sequence and contain parse, dispatch, apply,
// and view-publish events with plausible payloads.
func TestFlightEndpoint(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 2, C: 4, Seed: 1, Telemetry: rept.NewTelemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	defer func() {
		ts.Close()
		est.Close()
	}()
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(200))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/estimate?fresh=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight: status %d", resp.StatusCode)
	}
	var dump struct {
		Recorded int               `json:"recorded"`
		Events   []obs.FlightEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recorded == 0 || len(dump.Events) != dump.Recorded {
		t.Fatalf("flight dump recorded=%d with %d events", dump.Recorded, len(dump.Events))
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for _, ev := range dump.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("flight events out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	for _, k := range []string{"parse", "dispatch", "apply", "view_publish"} {
		if kinds[k] == 0 {
			t.Errorf("flight dump has no %q events (kinds: %v)", k, kinds)
		}
	}
}

// TestObservabilityEndToEnd drives the real binary — the same gate CI
// runs: boot with a WAL on a kernel-chosen port, stream edges in, then
// require a conformant /metrics scrape with every pipeline stage
// histogram non-zero and the full-rebuild counter at least 1, a ready
// /readyz, and a populated /debug/flight.
func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real processes")
	}
	bin := buildReptserve(t)
	cs := startCrashServer(t, bin,
		"-m", "2", "-c", "8", "-local",
		"-wal-dir", t.TempDir(),
		"-view-interval", "50ms",
	)
	defer cs.kill()

	body := ndjson(gen.DisjointTriangles(500))
	resp, err := http.Post(cs.base+"/edges", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// A fresh epoch guarantees barrier + view-publish observations even on
	// a fast machine where the interval timer has not fired yet.
	if resp, err := http.Get(cs.base + "/estimate?fresh=1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	exp := scrapeMetrics(t, cs.base)
	requireConformant(t, exp)
	for _, h := range []string{
		"rept_stage_parse_seconds",
		"rept_stage_dispatch_seconds",
		"rept_stage_queue_wait_seconds",
		"rept_stage_apply_seconds",
		"rept_stage_barrier_seconds",
		"rept_stage_wal_append_seconds",
		"rept_stage_wal_fsync_seconds",
		"rept_stage_view_publish_seconds",
	} {
		if histCount(exp, h) == 0 {
			t.Errorf("%s_count = 0 on the live binary, want > 0", h)
		}
	}
	if v, ok := exp.Sample("rept_processed_edges_total"); !ok || v != 1500 {
		t.Errorf("rept_processed_edges_total = %v (present=%v), want 1500", v, ok)
	}
	// The boot epoch has no earlier view to merge a delta onto, so it
	// ranks every node.
	if v, ok := exp.Sample("rept_view_full_publishes_total"); !ok || v < 1 {
		t.Errorf("rept_view_full_publishes_total = %v (present=%v), want >= 1", v, ok)
	}

	if resp, err := http.Get(cs.base + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /readyz: status %d, want 200", resp.StatusCode)
		}
	}

	fresp, err := http.Get(cs.base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var dump struct {
		Recorded int `json:"recorded"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recorded == 0 {
		t.Error("flight recorder empty on the live binary")
	}
}
