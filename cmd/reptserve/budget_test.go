package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rept"
	"rept/internal/control"
	"rept/internal/gen"
)

// TestParseByteSize: the -mem-budget grammar — plain bytes, binary K/M/G/T
// multiples, optional "i" and/or "B", case-insensitive — and its refusals.
func TestParseByteSize(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"512", 512},
		{"64k", 64 << 10},
		{"64K", 64 << 10},
		{"100KB", 100 << 10},
		{"256MiB", 256 << 20},
		{"256M", 256 << 20},
		{"256mib", 256 << 20},
		{"1G", 1 << 30},
		{"2TiB", 2 << 40},
		{" 8M ", 8 << 20},
	}
	for _, tc := range good {
		got, err := parseByteSize(tc.in)
		if err != nil {
			t.Errorf("parseByteSize(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"", "abc", "-5", "0", "5X", "12.5M", "99999999999TiB", "M"} {
		if got, err := parseByteSize(in); err == nil {
			t.Errorf("parseByteSize(%q) = %d, want error", in, got)
		}
	}
}

// newBudgetServer builds a server with the adaptive controller attached at
// the given budget through main's newController, minus the background
// ticker — tests drive Tick explicitly for determinism.
func newBudgetServer(t *testing.T, budget int64) (*httptest.Server, *rept.Concurrent, *control.Controller) {
	t.Helper()
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 2, C: 4, Seed: 3, FullyDynamic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(est)
	ctrl := newController(est, budget)
	srv.SetController(ctrl)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		est.Close()
	})
	return ts, est, ctrl
}

// TestBudgetTickDownsamplesAndKeepsRanking: a -local server whose ledger
// is over its budget downsamples on the controller's first tick, and once
// the stream goes idle /topk still answers the full -topk rows: the
// controller has no other lever than the sampling probability, and the
// ranking size is fixed for the publisher's life.
func TestBudgetTickDownsamplesAndKeepsRanking(t *testing.T) {
	const topk = 100
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 4, C: 8, Seed: 5, TrackLocal: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	if _, err := est.StartViews(rept.ViewConfig{Interval: 5 * time.Millisecond, TopK: topk}); err != nil {
		t.Fatal(err)
	}
	edges := gen.HolmeKim(5000, 6, 0.4, 21)
	half := len(edges) / 2
	est.AddAll(edges[:half])

	ctrl := newController(est, est.MemTotalBytes()-1)
	srv := NewServer(est)
	srv.SetController(ctrl)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctrl.Tick()
	if got := est.SampleShift(); got != 1 {
		t.Errorf("SampleShift = %d after one tick over the budget, want 1", got)
	}

	// The rest of the stream goes straight to the estimator (the server
	// sheds), then the stream goes idle once the view has caught up.
	est.AddAll(edges[half:])
	deadline := time.Now().Add(10 * time.Second)
	for est.View().Processed != est.Processed() {
		if time.Now().After(deadline) {
			t.Fatalf("view stuck at %d of %d events", est.View().Processed, est.Processed())
		}
		time.Sleep(time.Millisecond)
	}
	var out struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	if resp := getJSON(t, ts.URL+"/topk?k="+strconv.Itoa(topk), &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /topk: status %d", resp.StatusCode)
	}
	if len(out.Nodes) != topk {
		t.Errorf("/topk?k=%d on the idle stream answered %d rows, want %d", topk, len(out.Nodes), topk)
	}
}

// TestShedding429: once the controller is in the shedding state, /edges
// answers 429 with a Retry-After header — distinct from the 503 of a
// graceful drain — while queries, /readyz, and /metrics keep serving, and
// the refusal leaves exactly one shed event in /debug/flight, carrying
// the ledger total it was refused at; and the first accepted request
// after pressure clears proves the refusal is per-request, not a latch.
func TestShedding429(t *testing.T) {
	// Budget of 1 byte: any ingest at all overruns it.
	ts, _, ctrl := newBudgetServer(t, 1)
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(50))); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-pressure ingest: status %d", resp.StatusCode)
	}
	ctrl.Tick() // observes mem >> budget: shed
	if !ctrl.ShouldShed() {
		t.Fatal("controller not shedding with a 1-byte budget")
	}

	_, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(5)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shedding POST /edges: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	var flight struct {
		Events []struct {
			Kind  string `json:"kind"`
			Value uint64 `json:"value"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/debug/flight", &flight)
	var sheds []uint64
	for _, ev := range flight.Events {
		if ev.Kind == "shed" {
			sheds = append(sheds, ev.Value)
		}
	}
	if len(sheds) != 1 || sheds[0] <= 1 {
		t.Errorf("shed flight events after one 429 carry %v, want one value above the 1-byte budget", sheds)
	}

	// Queries and readiness survive shedding: only ingest is refused.
	if resp := getJSON(t, ts.URL+"/estimate", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /estimate while shedding: status %d, want 200", resp.StatusCode)
	}
	var ready struct {
		Status string `json:"status"`
		Budget struct {
			State    string `json:"state"`
			Shedding bool   `json:"shedding"`
		} `json:"budget"`
	}
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /readyz while shedding: status %d, want 200 (shedding is not unreadiness)", resp.StatusCode)
	}
	if ready.Status != "ready" || !ready.Budget.Shedding || ready.Budget.State != "shedding" {
		t.Errorf("readyz = %+v, want ready with budget state shedding", ready)
	}

	// The shed tally reached the metrics surface.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"rept_shed_requests_total 1",
		"rept_mem_budget_bytes 1",
		"rept_mem_state 2",
		"rept_mem_bytes{component=\"adjacency\"}",
		"rept_sample_probability",
		"rept_variance_bound",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatsBudgetAndMemoryBlocks: /stats always carries the memory ledger
// block; the budget block appears exactly when a controller is attached.
func TestStatsBudgetAndMemoryBlocks(t *testing.T) {
	read := func(ts *httptest.Server) (map[string]any, bool) {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Memory map[string]any `json:"memory"`
			Budget map[string]any `json:"budget"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Memory == nil {
			t.Fatal("/stats has no memory block")
		}
		return out.Memory, out.Budget != nil
	}

	plain, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if _, resp := postEdges(t, plain.URL, ndjson(gen.DisjointTriangles(40))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	settle(t, plain.URL)
	memBlock, hasBudget := read(plain)
	if hasBudget {
		t.Error("budget block present without -mem-budget")
	}
	if p, _ := memBlock["sampleProbability"].(float64); p != 0.5 {
		t.Errorf("sampleProbability = %v at M=2, want 0.5", p)
	}
	by, _ := memBlock["byComponent"].(map[string]any)
	if v, _ := by["adjacency"].(float64); !(v > 0) {
		t.Errorf("memory.byComponent.adjacency = %v after ingest, want > 0", by["adjacency"])
	}

	budgeted, _, ctrl := newBudgetServer(t, 1<<30)
	if _, resp := postEdges(t, budgeted.URL, ndjson(gen.DisjointTriangles(40))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	settle(t, budgeted.URL)
	ctrl.Tick()
	if _, hasBudget := read(budgeted); !hasBudget {
		t.Error("budget block missing with a controller attached")
	}
}

// TestFlightLimit: ?n= caps the /debug/flight dump to the newest n events,
// recorded keeps reporting the full ring occupancy, and malformed values
// are a 400.
func TestFlightLimit(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	defer func() {
		ts.Close()
		est.Close()
	}()
	if _, resp := postEdges(t, ts.URL, ndjson(gen.DisjointTriangles(100))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/estimate?fresh=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}

	var full flightDump
	getJSON(t, ts.URL+"/debug/flight", &full)
	if full.Recorded < 3 {
		t.Fatalf("only %d flight events recorded; stream too small for the test", full.Recorded)
	}

	var dump flightDump
	getJSON(t, ts.URL+"/debug/flight?n=2", &dump)
	if dump.Returned != 2 || len(dump.Events) != 2 {
		t.Fatalf("?n=2 returned %d events (returned=%d), want 2", len(dump.Events), dump.Returned)
	}
	if dump.Recorded < full.Recorded {
		t.Errorf("recorded = %d in the capped dump, want the full occupancy >= %d", dump.Recorded, full.Recorded)
	}
	// The newest events are kept: the capped dump's last seq matches an
	// uncapped dump's tail region.
	if last, fullLast := dump.Events[1].Seq, full.Events[len(full.Events)-1].Seq; last < fullLast {
		t.Errorf("capped dump ends at seq %d, uncapped at %d: the cap kept the oldest events", last, fullLast)
	}

	var zero flightDump
	getJSON(t, ts.URL+"/debug/flight?n=0", &zero)
	if zero.Returned != 0 || len(zero.Events) != 0 {
		t.Errorf("?n=0 returned %d events, want 0", zero.Returned)
	}

	for _, bad := range []string{"-1", "x", "1.5"} {
		resp, err := http.Get(ts.URL + "/debug/flight?n=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?n=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// flightDump mirrors the /debug/flight response shape.
type flightDump struct {
	Recorded int `json:"recorded"`
	Returned int `json:"returned"`
	Events   []struct {
		Seq uint64 `json:"seq"`
	} `json:"events"`
}
