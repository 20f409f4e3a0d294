package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rept"
	"rept/internal/gen"
	"rept/internal/wal"
)

func postCheckpoint(t *testing.T, url string) (checkpointResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr checkpointResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return cr, resp
}

func getRawBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// getStatistical fetches a fresh view-backed response and strips the
// fields that legitimately differ between servers (epoch sequence and
// wall-clock age), leaving only the estimator's statistical output.
// Values pass through one identical JSON round trip on both sides, so
// reflect.DeepEqual on the result is still an exact (bit-for-bit on
// floats) comparison.
func getStatistical(t *testing.T, url string) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(getRawBody(t, url), &out); err != nil {
		t.Fatal(err)
	}
	delete(out, "epoch")
	delete(out, "ageMs")
	return out
}

// TestKillAndRestoreBitForBit is the acceptance test: stream a prefix
// into a -wal-dir server, checkpoint, stop it, boot a new one on the same
// directory, stream the suffix, and the final /estimate and /local bodies
// must equal an uninterrupted server's byte for byte.
func TestKillAndRestoreBitForBit(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 5, C: 12, Shards: 2, Seed: 33, TrackLocal: true}
	edges := gen.Shuffle(gen.HolmeKim(300, 4, 0.4, 13), 7)
	cut := len(edges) / 2
	walOpt := rept.WALOptions{Dir: filepath.Join(t.TempDir(), "wal")}

	// Phase 1: fresh durable server, stream the prefix, checkpoint, stop.
	estA, err := newEstimator(cfg, walOpt)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(NewServer(estA))
	if _, resp := postEdges(t, tsA.URL, ndjson(edges[:cut])); resp.StatusCode != http.StatusOK {
		t.Fatalf("prefix ingest: status %d", resp.StatusCode)
	}
	cr, resp := postCheckpoint(t, tsA.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint: status %d", resp.StatusCode)
	}
	if cr.Processed != uint64(cut) || cr.WAL == nil || cr.WAL.CheckpointPos != uint64(cut) {
		t.Fatalf("checkpoint response = %+v (wal %+v), want processed and checkpoint position %d", cr, cr.WAL, cut)
	}
	tsA.Close()
	estA.Close()

	// Phase 2: boot on the same directory (what a restart with -wal-dir
	// does), stream the suffix.
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
	if _, resp := postEdges(t, tsB.URL, ndjson(edges[cut:])); resp.StatusCode != http.StatusOK {
		t.Fatalf("suffix ingest: status %d", resp.StatusCode)
	}
	restored := getStatistical(t, tsB.URL+"/estimate?fresh=1")

	// Reference: one server fed the whole stream without interruption.
	estC, err := newEstimator(cfg, rept.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer estC.Close()
	tsC := httptest.NewServer(NewServer(estC))
	defer tsC.Close()
	if _, resp := postEdges(t, tsC.URL, ndjson(edges)); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference ingest: status %d", resp.StatusCode)
	}
	reference := getStatistical(t, tsC.URL+"/estimate?fresh=1")

	if !reflect.DeepEqual(restored, reference) {
		t.Errorf("kill-and-restore /estimate diverged:\nrestored:  %v\nreference: %v", restored, reference)
	}

	// The local endpoint agrees too.
	a := getStatistical(t, tsB.URL+"/local?v=0&fresh=1")
	b := getStatistical(t, tsC.URL+"/local?v=0&fresh=1")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("kill-and-restore /local diverged: %v vs %v", a, b)
	}
}

// TestCheckpointCompactsWAL: on a durable server POST /checkpoint folds
// the log into its checkpoint and reports the new checkpoint position.
func TestCheckpointCompactsWAL(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 2, C: 4, Seed: 1}
	est, err := newEstimator(cfg, rept.WALOptions{Dir: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer est.Close()
	ts := httptest.NewServer(NewServer(est))
	defer ts.Close()

	if _, resp := postEdges(t, ts.URL, ndjson(gen.HolmeKim(40, 3, 0.4, 2))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	want := est.Processed()
	cr, resp := postCheckpoint(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint on a durable server: status %d, want 200", resp.StatusCode)
	}
	if cr.WAL == nil {
		t.Fatal("durable checkpoint response has no wal block")
	}
	if cr.WAL.CheckpointPos != want {
		t.Errorf("wal checkpoint position = %d after /checkpoint, want %d", cr.WAL.CheckpointPos, want)
	}
}

func TestCheckpointDisabledAndMethods(t *testing.T) {
	ts, _ := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	resp, out := bodyRequest(t, http.MethodPost, ts.URL+"/checkpoint", "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST /checkpoint without -wal-dir: status %d, want 409", resp.StatusCode)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "-wal-dir") {
		t.Errorf("409 message %q does not name -wal-dir", msg)
	}
	if resp := getJSON(t, ts.URL+"/checkpoint", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /checkpoint: status %d, want 405", resp.StatusCode)
	}
}

// TestRestoreBootErrors covers the boot failure modes of a WAL directory:
// a garbage checkpoint file, and a config fingerprint mismatch with a
// descriptive message through the full flag-parsing run() path.
func TestRestoreBootErrors(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 4, C: 8, Shards: 2, Seed: 5}

	garbage := t.TempDir()
	if err := os.WriteFile(filepath.Join(garbage, wal.CheckpointName), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newEstimator(cfg, rept.WALOptions{Dir: garbage}); err == nil {
		t.Error("boot on a garbage checkpoint succeeded")
	}

	dir := t.TempDir()
	est, err := newEstimator(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ApplyAllDurable(rept.Inserts(gen.HolmeKim(40, 3, 0.4, 2))); err != nil {
		t.Fatal(err)
	}
	if err := est.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	est.Close()

	err = run([]string{"-wal-dir", dir, "-m", "7", "-c", "8", "-shards", "2", "-seed", "5", "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "M = 4 in snapshot, 7 in config") {
		t.Errorf("run -wal-dir with mismatched -m: err = %v, want the M fingerprint mismatch named", err)
	}
}

// TestCloseEstimatorReportsFailedFinalSync: with -wal-sync <duration> a
// 200 acknowledges events on append, and the group commit inside Close
// is the only sync covering the last interval. Shutdown must turn that
// commit's failure into an error naming the log and its positions (the
// process then exits 1), and stay silent when the commit succeeds.
func TestCloseEstimatorReportsFailedFinalSync(t *testing.T) {
	ups := []rept.Update{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}}
	for _, failSync := range []bool{false, true} {
		be := wal.NewMemBackend()
		est, err := rept.ResumeDurable(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1},
			rept.WALOptions{Backend: be, SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := est.ApplyAllDurable(ups); err != nil {
			t.Fatal(err)
		}
		if failSync {
			be.FailSync(1)
		}
		err = closeEstimator(est)
		if !failSync {
			if err != nil {
				t.Errorf("closeEstimator after a healthy final commit: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatal("closeEstimator returned nil after the final group commit failed")
		}
		for _, want := range []string{"write-ahead log", "position 3", "only to 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("closeEstimator error %q does not mention %q", err, want)
			}
		}
	}
}
