package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rept"
	"rept/internal/gen"
)

// localServer builds a test server with local + degree tracking on, in
// exact mode (M=1, C=1) so view answers are deterministic.
func localServer(t *testing.T) (*httptest.Server, *rept.Concurrent) {
	t.Helper()
	return newTestServer(t, rept.ConcurrentConfig{M: 1, C: 1, Seed: 1, TrackLocal: true, TrackDegrees: true})
}

type metaFields struct {
	Epoch         uint64  `json:"epoch"`
	AgeMs         float64 `json:"ageMs"`
	AsOfProcessed uint64  `json:"asOfProcessed"`
}

// TestTopKEndpoint ingests a stream with a known heavy hitter and checks
// the ranking, the epoch/staleness report, and the parameter validation.
func TestTopKEndpoint(t *testing.T) {
	ts, _ := localServer(t)
	// A 12-clique: every member has tau_v = C(11,2) = 55. Node ids 100+.
	clique := gen.Complete(12)
	for i := range clique {
		clique[i].U += 100
		clique[i].V += 100
	}
	// Plus 30 disjoint triangles (tau_v = 1 each) as background.
	body := ndjson(append(gen.DisjointTriangles(30), clique...))
	if _, resp := postEdges(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	var out struct {
		metaFields
		K     int `json:"k"`
		Nodes []struct {
			V      uint32   `json:"v"`
			Local  float64  `json:"local"`
			Degree *uint32  `json:"degree"`
			CC     *float64 `json:"cc"`
		} `json:"nodes"`
	}
	if resp := getJSON(t, ts.URL+"/topk?k=12&fresh=1", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /topk: status %d", resp.StatusCode)
	}
	if out.Epoch == 0 {
		t.Error("topk response reports no epoch")
	}
	if out.AsOfProcessed != uint64(30*3+len(clique)) {
		t.Errorf("asOfProcessed = %d, want %d", out.AsOfProcessed, 30*3+len(clique))
	}
	if out.K != 12 || len(out.Nodes) != 12 {
		t.Fatalf("k = %d with %d rows, want 12", out.K, len(out.Nodes))
	}
	for i, n := range out.Nodes {
		if n.V < 100 {
			t.Errorf("rank %d is node %d, want a clique member (>= 100)", i, n.V)
		}
		if n.Local != 55 {
			t.Errorf("rank %d local = %v, want 55 (exact mode)", i, n.Local)
		}
		if n.Degree == nil || *n.Degree != 11 {
			t.Errorf("rank %d degree = %v, want 11", i, n.Degree)
		}
		// Clique members have cc = 2*55/(11*10) = 1.
		if n.CC == nil || *n.CC != 1 {
			t.Errorf("rank %d cc = %v, want 1", i, n.CC)
		}
	}

	if resp := getJSON(t, ts.URL+"/topk?k=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /topk?k=abc: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/topk?k=1000000", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /topk beyond ranking size: status %d, want 400", resp.StatusCode)
	}
}

func TestCCEndpoint(t *testing.T) {
	ts, _ := localServer(t)
	// Triangle 0-1-2 plus a pendant edge 2-3: cc(2) = 2*1/(3*2) = 1/3,
	// cc(3) undefined (degree 1).
	if _, resp := postEdges(t, ts.URL, ndjson([]rept.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var out struct {
		metaFields
		V      uint32   `json:"v"`
		Local  float64  `json:"local"`
		Degree *uint32  `json:"degree"`
		CC     *float64 `json:"cc"`
	}
	if resp := getJSON(t, ts.URL+"/cc?v=2&fresh=1", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cc: status %d", resp.StatusCode)
	}
	if out.Epoch == 0 {
		t.Error("cc response reports no epoch")
	}
	if out.Degree == nil || *out.Degree != 3 || out.Local != 1 {
		t.Fatalf("cc response = %+v, want degree 3 local 1", out)
	}
	if out.CC == nil || *out.CC != 1.0/3 {
		t.Errorf("cc(2) = %v, want 1/3", out.CC)
	}

	out.CC = nil
	if resp := getJSON(t, ts.URL+"/cc?v=3", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cc?v=3: status %d", resp.StatusCode)
	}
	if out.CC != nil {
		t.Errorf("cc(3) = %v, want omitted (degree < 2)", *out.CC)
	}
	if resp := getJSON(t, ts.URL+"/cc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /cc without v: status %d, want 400", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := localServer(t)
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(5))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/query?fresh=1", "application/json", strings.NewReader(`{"nodes":[0,1,99]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	var out struct {
		metaFields
		Results []struct {
			V     uint32  `json:"v"`
			Local float64 `json:"local"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch == 0 {
		t.Error("query response reports no epoch")
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].V != 0 || out.Results[0].Local != 1 {
		t.Errorf("results[0] = %+v, want node 0 local 1", out.Results[0])
	}
	if out.Results[2].V != 99 || out.Results[2].Local != 0 {
		t.Errorf("results[2] = %+v, want node 99 local 0 (unseen)", out.Results[2])
	}

	bad, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /query with garbage: status %d, want 400", bad.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := localServer(t)
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(3))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var out struct {
		metaFields
		Processed      uint64            `json:"processed"`
		SampledEdges   int               `json:"sampledEdges"`
		EtaSaturations uint64            `json:"etaSaturations"`
		Shards         int               `json:"shards"`
		TopK           int               `json:"topK"`
		Requests       map[string]uint64 `json:"requests"`
	}
	if resp := getJSON(t, ts.URL+"/stats?fresh=1", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	if out.Epoch == 0 || out.Processed != 9 || out.AsOfProcessed != 9 {
		t.Errorf("stats = %+v, want epoch > 0, processed 9", out)
	}
	if out.SampledEdges != 9 {
		t.Errorf("sampledEdges = %d, want 9 (M=1 stores everything)", out.SampledEdges)
	}
	if out.EtaSaturations != 0 {
		t.Errorf("etaSaturations = %d on a tiny stream, want 0", out.EtaSaturations)
	}
	if out.Shards != 1 || out.TopK != 100 {
		t.Errorf("shards = %d topK = %d, want 1 and 100", out.Shards, out.TopK)
	}
	if out.Requests["/edges"] != 1 || out.Requests["/stats"] == 0 {
		t.Errorf("per-endpoint requests = %v", out.Requests)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := localServer(t)
	if _, resp := postEdges(t, ts.URL, "{\"u\":1,\"v\":2}\n{\"u\":3,\"v\":3}\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"rept_processed_edges_total 1\n",
		"rept_self_loops_total 1\n",
		"# TYPE rept_view_age_seconds gauge",
		"rept_view_epoch ",
		"rept_http_requests_total{endpoint=\"/edges\"} 1\n",
		"rept_http_requests_total{endpoint=\"/metrics\"} 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestViewEndpointsRequireTracking: every analytics endpoint answers 409
// when the needed tracking is off.
func TestViewEndpointsRequireTracking(t *testing.T) {
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	for _, url := range []string{"/topk", "/cc?v=1"} {
		if resp := getJSON(t, ts.URL+url, nil); resp.StatusCode != http.StatusConflict {
			t.Errorf("GET %s without tracking: status %d, want 409", url, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"nodes":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST /query without tracking: status %d, want 409", resp.StatusCode)
	}
	// cc additionally needs degrees: local-only tracking still answers 409.
	ts2, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1, TrackLocal: true})
	if resp := getJSON(t, ts2.URL+"/cc?v=1", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("GET /cc with locals but no degrees: status %d, want 409", resp.StatusCode)
	}
}

// TestStaleThenFresh: without fresh=1 a query may answer from an older
// epoch (bounded staleness is the contract); with fresh=1 it must reflect
// everything ingested before the call.
func TestStaleThenFresh(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 1, C: 1, Seed: 1, TrackLocal: true, TrackDegrees: true})
	if err != nil {
		t.Fatal(err)
	}
	// A long interval so the background publisher cannot mask staleness.
	if _, err := est.StartViews(rept.ViewConfig{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	t.Cleanup(func() { ts.Close(); est.Close() })

	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(2))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var stale estimateResponse
	if resp := getJSON(t, ts.URL+"/estimate", &stale); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}
	if stale.Processed != 0 || stale.Epoch != 1 {
		t.Errorf("stale response = processed %d epoch %d, want 0 and 1 (epoch published before ingest)", stale.Processed, stale.Epoch)
	}
	var fresh estimateResponse
	if resp := getJSON(t, ts.URL+"/estimate?fresh=1", &fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate?fresh=1: status %d", resp.StatusCode)
	}
	if fresh.Processed != 6 || fresh.Global != 2 || fresh.Epoch <= stale.Epoch {
		t.Errorf("fresh response = %+v, want processed 6, global 2, a later epoch", fresh)
	}
}
