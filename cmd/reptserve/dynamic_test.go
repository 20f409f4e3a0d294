package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rept"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/wal"
)

// ndjsonUpdates renders a signed event stream as NDJSON ingest lines,
// spelling out op:"add" on a sample of insertions so both the implicit
// and explicit forms are exercised.
func ndjsonUpdates(ups []rept.Update) string {
	var b strings.Builder
	for i, up := range ups {
		switch {
		case up.Del:
			fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":\"del\"}\n", up.U, up.V)
		case i%7 == 0:
			fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":\"add\"}\n", up.U, up.V)
		default:
			fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d}\n", up.U, up.V)
		}
	}
	return b.String()
}

func bodyRequest(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestIngestDeletions drives the fully-dynamic ingest surface end to
// end: op:"del" lines through POST, bare lines through DELETE /edges,
// per-line op overrides, and the net estimate they produce.
func TestIngestDeletions(t *testing.T) {
	ts, est := newTestServer(t, rept.ConcurrentConfig{M: 1, C: 1, Seed: 1, FullyDynamic: true})

	// Build a triangle plus a chord, then unfollow the chord: M=1 is the
	// exact mode, so estimates are exact counts.
	if _, resp := postEdges(t, ts.URL, "{\"u\":1,\"v\":2}\n{\"u\":2,\"v\":3}\n{\"u\":1,\"v\":3}\n{\"u\":2,\"v\":4}\n{\"u\":3,\"v\":4,\"op\":\"add\"}\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert ingest: status %d", resp.StatusCode)
	}
	var er estimateResponse
	getJSON(t, ts.URL+"/estimate?fresh=1", &er)
	if er.Global != 2 {
		t.Fatalf("global after inserts = %v, want 2", er.Global)
	}

	// POST with an op:"del" line removes (2,4), killing triangle {2,3,4}.
	if _, resp := postEdges(t, ts.URL, "{\"u\":2,\"v\":4,\"op\":\"del\"}\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("op:del ingest: status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/estimate?fresh=1", &er)
	if er.Global != 1 || er.Deleted != 1 {
		t.Fatalf("global after op:del = %v (deleted %d), want 1 (1)", er.Global, er.Deleted)
	}

	// DELETE /edges with bare lines defaults them to deletions; an
	// explicit op:"add" line re-inserts within the same body.
	resp, out := bodyRequest(t, http.MethodDelete, ts.URL+"/edges", "{\"u\":1,\"v\":3}\n{\"u\":2,\"v\":4,\"op\":\"add\"}\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /edges: status %d (%v)", resp.StatusCode, out)
	}
	if out["deleted"] != float64(1) || out["accepted"] != float64(2) {
		t.Fatalf("DELETE /edges response = %v, want accepted 2 deleted 1", out)
	}
	getJSON(t, ts.URL+"/estimate?fresh=1", &er)
	if er.Global != 1 { // {1,2,3} broken, {2,3,4} restored
		t.Fatalf("global after DELETE body = %v, want 1", er.Global)
	}
	if got := est.Deleted(); got != 2 {
		t.Fatalf("estimator Deleted = %d, want 2", got)
	}

	// Unknown ops are 400s, reported with their line number.
	resp, out = bodyRequest(t, http.MethodPost, ts.URL+"/edges", "{\"u\":1,\"v\":2,\"op\":\"upsert\"}\n")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "op") {
		t.Fatalf("unknown op: status %d body %v, want 400 naming the op", resp.StatusCode, out)
	}
}

// TestIngestDeletionsRequireDynamic: without -dynamic every deletion
// path answers 409 and leaves the estimator untouched.
func TestIngestDeletionsRequireDynamic(t *testing.T) {
	ts, est := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})

	if _, resp := postEdges(t, ts.URL, "{\"u\":1,\"v\":2}\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert ingest: status %d", resp.StatusCode)
	}
	resp, out := bodyRequest(t, http.MethodDelete, ts.URL+"/edges", "{\"u\":1,\"v\":2}\n")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(fmt.Sprint(out["error"]), "-dynamic") {
		t.Fatalf("DELETE without -dynamic: status %d body %v, want 409 naming -dynamic", resp.StatusCode, out)
	}
	resp, out = bodyRequest(t, http.MethodPost, ts.URL+"/edges", "{\"u\":3,\"v\":4}\n{\"u\":1,\"v\":2,\"op\":\"del\"}\n")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("op:del without -dynamic: status %d body %v, want 409", resp.StatusCode, out)
	}
	// The insert line before the rejected delete was already streamed in
	// (ingestion is not transactional) — the deletion itself must not be.
	if est.Processed() != 2 || est.Deleted() != 0 {
		t.Fatalf("tallies = (%d, %d), want (2, 0)", est.Processed(), est.Deleted())
	}
}

// TestKillAndRestoreBitForBitFullyDynamic is the fully-dynamic
// counterpart of TestKillAndRestoreBitForBit: stream a deletion-bearing
// churn prefix into a -wal-dir server, checkpoint, stop it, boot on the
// same directory, stream the churn suffix, and the final statistical
// output must equal an uninterrupted server's byte for byte.
func TestKillAndRestoreBitForBitFullyDynamic(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 5, C: 12, Shards: 2, Seed: 33, TrackLocal: true, TrackDegrees: true, FullyDynamic: true}
	base := gen.Shuffle(gen.HolmeKim(300, 4, 0.4, 13), 7)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Reinsert, DeleteFrac: 0.35, Seed: 21})
	cut := len(ups) / 2
	walOpt := rept.WALOptions{Dir: filepath.Join(t.TempDir(), "wal")}

	// Phase 1: fresh durable server, stream the churn prefix, checkpoint,
	// stop.
	estA, err := newEstimator(cfg, walOpt)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(NewServer(estA))
	if _, out := bodyRequest(t, http.MethodPost, tsA.URL+"/edges", ndjsonUpdates(ups[:cut])); out["error"] != nil {
		t.Fatalf("prefix ingest: %v", out["error"])
	}
	cr, resp := postCheckpoint(t, tsA.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint: status %d", resp.StatusCode)
	}
	if cr.Processed != uint64(cut) {
		t.Fatalf("checkpoint processed = %d, want %d events", cr.Processed, cut)
	}
	tsA.Close()
	estA.Close()

	// Phase 2: boot on the same directory, stream the suffix.
	estB, err := newEstimator(cfg, walOpt)
	if err != nil {
		t.Fatalf("restore boot: %v", err)
	}
	defer estB.Close()
	if estB.Processed() != uint64(cut) {
		t.Fatalf("restored Processed = %d, want %d", estB.Processed(), cut)
	}
	tsB := httptest.NewServer(NewServer(estB))
	defer tsB.Close()
	if _, out := bodyRequest(t, http.MethodPost, tsB.URL+"/edges", ndjsonUpdates(ups[cut:])); out["error"] != nil {
		t.Fatalf("suffix ingest: %v", out["error"])
	}
	restored := getStatistical(t, tsB.URL+"/estimate?fresh=1")

	// Reference: one server fed the whole churn stream uninterrupted.
	estC, err := newEstimator(cfg, rept.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer estC.Close()
	tsC := httptest.NewServer(NewServer(estC))
	defer tsC.Close()
	if _, out := bodyRequest(t, http.MethodPost, tsC.URL+"/edges", ndjsonUpdates(ups)); out["error"] != nil {
		t.Fatalf("reference ingest: %v", out["error"])
	}
	uninterrupted := getStatistical(t, tsC.URL+"/estimate?fresh=1")

	if fmt.Sprint(restored) != fmt.Sprint(uninterrupted) {
		t.Errorf("kill-and-restore output diverged:\nrestored:      %v\nuninterrupted: %v", restored, uninterrupted)
	}

	// And the state itself must be reproducible: checkpointing the
	// restored+caught-up server yields the uninterrupted one's snapshot
	// byte for byte (canonical encoding).
	crB, resp := postCheckpoint(t, tsB.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored checkpoint: status %d", resp.StatusCode)
	}
	if crB.Processed != uint64(len(ups)) {
		t.Errorf("restored checkpoint processed = %d, want %d", crB.Processed, len(ups))
	}
	got, err := os.ReadFile(filepath.Join(walOpt.Dir, wal.CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := estC.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("restored server's checkpoint differs from the uninterrupted server's snapshot")
	}
}
