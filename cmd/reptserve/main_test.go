package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rept"
	"rept/internal/gen"
)

func newTestServer(t *testing.T, cfg rept.ConcurrentConfig) (*httptest.Server, *rept.Concurrent) {
	t.Helper()
	est, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	t.Cleanup(func() {
		ts.Close()
		est.Close()
	})
	return ts, est
}

func ndjson(edges []rept.Edge) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d}\n", e.U, e.V)
	}
	return b.String()
}

func postEdges(t *testing.T, url, body string) (ingestResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/edges", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
	}
	return ir, resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// settle waits until the server has applied every event it acknowledged:
// /estimate?fresh=1 publishes an epoch through a barrier that every
// shard, the degree tracker and the WAL goroutine pass in stream order. A
// POST /edges returns before the shards apply its events, so a test that
// reads state they update (/stats, /metrics, /debug/flight) settles first.
func settle(t *testing.T, base string) {
	t.Helper()
	if resp := getJSON(t, base+"/estimate?fresh=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate?fresh=1: status %d", resp.StatusCode)
	}
}

// TestConcurrentIngestEnvelope is the acceptance test: 6 parallel clients
// stream disjoint NDJSON chunks into /edges, and the /estimate response
// must land within the same error envelope (6 theoretical standard
// errors around the exact count) as a single-caller Estimator fed the
// identical stream.
func TestConcurrentIngestEnvelope(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(500, 5, 0.4, 31), 17)
	exact := rept.ExactCount(edges, rept.ExactOptions{Eta: true})
	tau := float64(exact.Tau)

	const m, c = 4, 64
	envelope := 6 * math.Sqrt(rept.TheoreticalVariance(m, c, tau, float64(exact.Eta)))

	single, err := rept.New(rept.Config{M: m, C: c, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	single.AddAll(edges)
	if diff := math.Abs(single.Global() - tau); diff > envelope {
		t.Fatalf("single-caller estimator off by %v > envelope %v", diff, envelope)
	}

	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: m, C: c, Shards: 4, Seed: 77})

	const clients = 6
	chunk := (len(edges) + clients - 1) / clients
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for p := 0; p < clients; p++ {
		lo := min(p*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		wg.Add(1)
		go func(part []rept.Edge) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", strings.NewReader(ndjson(part)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("POST /edges: status %d", resp.StatusCode)
			}
		}(edges[lo:hi])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// fresh=1 forces a barrier epoch: the response must describe the full
	// ingested stream, not a bounded-stale view of it.
	var est estimateResponse
	if resp := getJSON(t, ts.URL+"/estimate?fresh=1", &est); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}
	if est.Processed != uint64(len(edges)) {
		t.Fatalf("processed = %d, want %d", est.Processed, len(edges))
	}
	if diff := math.Abs(est.Global - tau); diff > envelope {
		t.Errorf("server estimate %v off exact %v by %v > envelope %v", est.Global, tau, diff, envelope)
	}
}

func TestIngestResponseCounts(t *testing.T) {
	ts, est := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	body := "{\"u\":1,\"v\":2}\n\n{\"u\":3,\"v\":3}\n{\"u\":2,\"v\":3}\n"
	ir, resp := postEdges(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ir.Accepted != 2 || ir.SelfLoops != 1 {
		t.Errorf("accepted=%d selfLoops=%d, want 2 and 1", ir.Accepted, ir.SelfLoops)
	}
	if ir.Processed != 2 || est.Processed() != 2 {
		t.Errorf("processed=%d (estimator %d), want 2", ir.Processed, est.Processed())
	}
}

func TestIngestMalformedLine(t *testing.T) {
	ts, est := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	for _, body := range []string{
		"{\"u\":1,\"v\":2}\nnot json\n",
		"{\"u\":1}\n",
		"{\"u\":1,\"v\":4294967296}\n", // overflows uint32
	} {
		_, resp := postEdges(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The well-formed prefix of the first body was ingested before the error.
	if est.Processed() != 1 {
		t.Errorf("processed = %d, want 1 (streaming ingest keeps the valid prefix)", est.Processed())
	}
}

func TestMethodsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})

	if resp := getJSON(t, ts.URL+"/edges", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /edges: status %d, want 405", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/estimate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /estimate: status %d, want 405", resp.StatusCode)
	}

	var health struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Shards < 1 {
		t.Errorf("healthz = %+v", health)
	}
}

func TestLocalEndpoint(t *testing.T) {
	// DisjointTriangles gives every node exactly one triangle.
	edges := gen.DisjointTriangles(40)
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 1, C: 1, Seed: 1, TrackLocal: true})
	if _, resp := postEdges(t, ts.URL, ndjson(edges)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	var out struct {
		V     uint32  `json:"v"`
		Local float64 `json:"local"`
		Epoch uint64  `json:"epoch"`
	}
	if resp := getJSON(t, ts.URL+"/local?v=0&fresh=1", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /local: status %d", resp.StatusCode)
	}
	if out.Epoch == 0 {
		t.Error("view-backed /local response reports no epoch")
	}
	// M=1, C=1 is exact counting: node 0 is in exactly one triangle.
	if out.Local != 1 {
		t.Errorf("local estimate for node 0 = %v, want 1 (exact mode)", out.Local)
	}

	if resp := getJSON(t, ts.URL+"/local", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /local without v: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/local?v=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /local?v=abc: status %d, want 400", resp.StatusCode)
	}
}

func TestLocalDisabled(t *testing.T) {
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if resp := getJSON(t, ts.URL+"/local?v=1", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("GET /local with tracking disabled: status %d, want 409", resp.StatusCode)
	}
}

func TestEstimateVarianceOmittedWhenUntracked(t *testing.T) {
	// C < M without forced η is the one layout whose variance needs η
	// counters that are not tracked: the NaN must be omitted from the
	// JSON rather than breaking encoding.
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 4, C: 2, Seed: 1})
	var est estimateResponse
	if resp := getJSON(t, ts.URL+"/estimate", &est); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate: status %d", resp.StatusCode)
	}
	if est.Variance != nil || est.StdErr != nil {
		t.Errorf("variance fields present without η tracking: %+v", est)
	}

	ts2, _ := newTestServer(t, rept.ConcurrentConfig{M: 4, C: 2, Seed: 1, TrackEta: true})
	if resp := getJSON(t, ts2.URL+"/estimate", &est); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /estimate (eta): status %d", resp.StatusCode)
	}
	if est.Variance == nil || est.StdErr == nil {
		t.Errorf("variance fields missing with η tracking: %+v", est)
	}
}

// TestStopThenRequests: after Stop the handlers must answer 503 rather
// than touching the estimator, so closing it underneath (the expired
// grace-period path in main) cannot panic in-flight ingests.
func TestStopThenRequests(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1, TrackLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(est)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.Stop()
	est.Close()

	if _, resp := postEdges(t, ts.URL, "{\"u\":1,\"v\":2}\n"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /edges after Stop: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/estimate", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /estimate after Stop: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/local?v=1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /local after Stop: status %d, want 503", resp.StatusCode)
	}
	// Liveness keeps answering through shutdown (atomic counters only).
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after Stop: status %d, want 200", resp.StatusCode)
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("run with unknown flag succeeded, want flag error")
	}
	// A refused flag leaves nothing behind: run returns before WAL
	// recovery creates -wal-dir.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mem-budget", "64Q"}, "-mem-budget:"},
		{[]string{"-m", "0"}, "rept: core: M = 0"},
		{[]string{"-c", "0"}, "rept: core: C = 0"},
	} {
		dir := filepath.Join(t.TempDir(), "wal")
		err := run(append([]string{"-addr", "127.0.0.1:0", "-wal-dir", dir}, tc.args...))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("run with %v = %v, want an error starting %q", tc.args, err, tc.want)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-wal-dir after run with %v: %v, want it never created", tc.args, err)
		}
	}
	// A non-positive -topk, -view-interval or -mem-tick, and a negative
	// -shards, -wal-segment-bytes, -grace or -slow-log, is refused, not
	// replaced by a default. No listener can open the address, so a check
	// that came after the listener would fail there instead of serving.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topk", "0"}, "-topk:"},
		{[]string{"-view-interval", "0"}, "-view-interval:"},
		{[]string{"-mem-tick", "-1s", "-mem-budget", "64M"}, "-mem-tick:"},
		{[]string{"-mem-tick", "0"}, "-mem-tick:"},
		{[]string{"-shards", "-1"}, "-shards:"},
		{[]string{"-wal-segment-bytes", "-1"}, "-wal-segment-bytes:"},
		{[]string{"-grace", "-1s"}, "-grace:"},
		{[]string{"-slow-log", "-1s"}, "-slow-log:"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:-1"}, tc.args...))
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("run with %v = %v, want an error starting %q", tc.args, err, tc.want)
		}
	}
}
