package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rept"
	"rept/internal/wal"
)

// TestParseEdgeLineFast: every line the fast scanner accepts must decode
// to exactly what encoding/json would have produced.
func TestParseEdgeLineFast(t *testing.T) {
	cases := []struct {
		line string
		u, v uint32
		op   int
	}{
		{`{"u":1,"v":2}`, 1, 2, opNone},
		{`{"v":2,"u":1}`, 1, 2, opNone},
		{`{ "u" : 7 , "v" : 9 }`, 7, 9, opNone},
		{`{"u":0,"v":4294967295}`, 0, 4294967295, opNone},
		{`{"u":1,"v":2,"op":"add"}`, 1, 2, opAdd},
		{`{"u":1,"v":2,"op":"del"}`, 1, 2, opDel},
		{`{"op":"delete","u":3,"v":4}`, 3, 4, opDel},
		{`{"u":5,"v":5,"op":""}`, 5, 5, opNone},
		{"\t{\"u\":10,\"v\":11}\r", 10, 11, opNone},
	}
	for _, c := range cases {
		u, v, op, ok := parseEdgeLine([]byte(c.line))
		if !ok {
			t.Errorf("parseEdgeLine(%q) rejected a fast-shape line", c.line)
			continue
		}
		if u != c.u || v != c.v || op != c.op {
			t.Errorf("parseEdgeLine(%q) = (%d, %d, %d), want (%d, %d, %d)", c.line, u, v, op, c.u, c.v, c.op)
		}
		// Cross-check against the encoding/json reference decode.
		var el edgeLine
		if err := json.Unmarshal([]byte(c.line), &el); err != nil {
			t.Errorf("reference decode of %q failed: %v", c.line, err)
			continue
		}
		if el.U == nil || el.V == nil || *el.U != u || *el.V != v {
			t.Errorf("parseEdgeLine(%q) disagrees with encoding/json: (%d,%d) vs (%v,%v)", c.line, u, v, el.U, el.V)
		}
	}
}

// TestParseEdgeLineFallback: anything outside the fast shape — malformed,
// unusual, or carrying semantics only encoding/json should decide — must
// be declined so the fallback path preserves historical behavior.
func TestParseEdgeLineFallback(t *testing.T) {
	lines := []string{
		``,
		`not json`,
		`{}`,
		`{"u":1}`,                     // missing v → json's "need both" 400
		`{"v":2}`,                     // missing u
		`{"u":1,"v":2,}`,              // trailing comma is invalid JSON
		`{"u":1,"v":4294967296}`,      // overflows uint32 → json's 400
		`{"u":-1,"v":2}`,              // negative
		`{"u":1.5,"v":2}`,             // fraction
		`{"u":1e2,"v":2}`,             // exponent
		`{"u":01,"v":2}`,              // leading zero is invalid JSON
		`{"u":"1","v":2}`,             // string-typed number
		`{"u":1,"v":2,"op":"frob"}`,   // unknown op → json path's op 400
		`{"u":1,"v":2,"op":"ad\u64"}`, // escapes
		`{"u":1,"v":2,"extra":true}`,  // unknown field (json ignores it)
		`{"u":1,"u":2,"v":3}`,         // duplicate field (json last-wins)
		`{"u":1,"v":2} trailing`,      // trailing garbage
		`[1,2]`,
	}
	for _, line := range lines {
		if _, _, _, ok := parseEdgeLine([]byte(line)); ok {
			t.Errorf("parseEdgeLine(%q) = ok, want fallback to encoding/json", line)
		}
	}
}

// TestParseEdgeLineZeroAlloc gates the tentpole's zero-allocation claim
// for the hot ingest parse: one fast-shape line must cost 0 allocs.
func TestParseEdgeLineZeroAlloc(t *testing.T) {
	lines := [][]byte{
		[]byte(`{"u":123456,"v":654321}`),
		[]byte(`{"u":1,"v":2,"op":"del"}`),
		[]byte(`{ "op" : "add" , "u" : 3 , "v" : 4 }`),
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, l := range lines {
			if _, _, _, ok := parseEdgeLine(l); !ok {
				t.Fatal("fast line rejected")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("parseEdgeLine allocates %.1f times per 3 lines, want 0", allocs)
	}
}

// TestIngestFastAndFallbackAgree drives mixed fast/fallback lines through
// the real handler and checks the estimator sees the same stream either
// way.
func TestIngestFastAndFallbackAgree(t *testing.T) {
	tsA, estA := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 9, FullyDynamic: true})
	tsB, estB := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 9, FullyDynamic: true})

	// Body A: fast shapes. Body B: the same events dressed so every line
	// falls back to encoding/json (extra field).
	var fast, slow strings.Builder
	type ev struct {
		u, v uint32
		op   string
	}
	events := []ev{{1, 2, ""}, {2, 3, "add"}, {1, 3, ""}, {1, 2, "del"}, {4, 4, ""}}
	for _, e := range events {
		if e.op == "" {
			fast.WriteString(`{"u":` + itoa(e.u) + `,"v":` + itoa(e.v) + "}\n")
			slow.WriteString(`{"u":` + itoa(e.u) + `,"v":` + itoa(e.v) + `,"x":0}` + "\n")
		} else {
			fast.WriteString(`{"u":` + itoa(e.u) + `,"v":` + itoa(e.v) + `,"op":"` + e.op + `"}` + "\n")
			slow.WriteString(`{"u":` + itoa(e.u) + `,"v":` + itoa(e.v) + `,"op":"` + e.op + `","x":0}` + "\n")
		}
	}
	irA, respA := postEdges(t, tsA.URL, fast.String())
	irB, respB := postEdges(t, tsB.URL, slow.String())
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", respA.StatusCode, respB.StatusCode)
	}
	if irA != irB {
		t.Errorf("fast response %+v != fallback response %+v", irA, irB)
	}
	if estA.Processed() != estB.Processed() || estA.Deleted() != estB.Deleted() || estA.SelfLoops() != estB.SelfLoops() {
		t.Errorf("estimators diverge: (%d,%d,%d) vs (%d,%d,%d)",
			estA.Processed(), estA.Deleted(), estA.SelfLoops(),
			estB.Processed(), estB.Deleted(), estB.SelfLoops())
	}
	if g1, g2 := estA.Global(), estB.Global(); g1 != g2 {
		t.Errorf("estimates diverge: %v vs %v", g1, g2)
	}
}

func itoa(n uint32) string {
	var buf [10]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// TestIngestAccountingOnShutdown is the regression test for the
// accepted-count over-report: events parsed into a batch that the
// shutdown path refused to flush were historically still counted as
// accepted. The 503 must report exactly the events the estimator got —
// zero here — and the estimator must be untouched. A body that ends at a
// bad line (not JSON, a missing endpoint, a deletion without -dynamic)
// flushes the valid lines before it first; that refused flush, not the
// line's 400 or 409, is the answer.
func TestIngestAccountingOnShutdown(t *testing.T) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(est)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer est.Close()

	srv.Stop()

	var big strings.Builder
	for i := 0; i < maxBodyBatch+10; i++ {
		big.WriteString(`{"u":1,"v":2}` + "\n")
	}
	valid := `{"u":1,"v":2}` + "\n"
	for _, c := range []struct{ name, body string }{
		// Fewer lines than a batch: dropped by the final flush.
		{"short body", ndjson([]rept.Edge{{U: 1, V: 2}, {U: 2, V: 3}})},
		// More lines than the body-batch bound: the mid-loop flush
		// refuses too.
		{"big body", big.String()},
		{"then not json", valid + "not json\n"},
		{"then a missing v", valid + `{"u":1}` + "\n"},
		{"then a deletion without -dynamic", valid + `{"u":1,"v":2,"op":"del"}` + "\n"},
	} {
		code, msg := postEdgesError(t, ts.URL, c.body)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d (%q), want 503", c.name, code, msg)
		}
		if !strings.Contains(msg, "accepted 0 events") {
			t.Errorf("%s: 503 body %q, want it to report 0 accepted events (none were ingested)", c.name, msg)
		}
		if est.Processed() != 0 {
			t.Fatalf("%s: estimator processed %d events through a stopped server", c.name, est.Processed())
		}
	}
}

// TestIngestBadLineAfterWALFailure: on a durable server, a body whose
// valid lines the write-ahead log refuses answers the log's sticky 500,
// not the 400 of the bad line that ended it.
func TestIngestBadLineAfterWALFailure(t *testing.T) {
	be := wal.NewMemBackend()
	est, err := rept.ResumeDurable(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1}, rept.WALOptions{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(est))
	defer ts.Close()
	defer est.Close()

	be.FailSync(1)
	code, msg := postEdgesError(t, ts.URL, `{"u":1,"v":2}`+"\n"+"not json\n")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d (%q), want 500", code, msg)
	}
	if !strings.Contains(msg, "write-ahead log") || !strings.Contains(msg, "accepted 0 events") {
		t.Errorf("500 body %q, want the write-ahead-log error and 0 accepted events", msg)
	}
}

// postEdgesError POSTs body to /edges and returns the status and the
// error message of the JSON response ("" for a success).
func postEdgesError(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/edges", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, msg.Error
}

// TestIngestAccountingOnReadError: when the body dies mid-request (an
// over-long line), the 400 reports exactly the events flushed to the
// estimator before the failure, and the two stay consistent.
func TestIngestAccountingOnReadError(t *testing.T) {
	ts, est := newTestServer(t, rept.ConcurrentConfig{M: 2, C: 4, Seed: 1})
	body := `{"u":1,"v":2}` + "\n" + `{"u":2,"v":3}` + "\n" + strings.Repeat("x", maxLineLen+1) + "\n"
	resp, err := http.Post(ts.URL+"/edges", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg.Error, "accepted 2 events") {
		t.Errorf("400 body %q, want it to report the 2 flushed events", msg.Error)
	}
	if est.Processed() != 2 {
		t.Errorf("estimator processed %d, want 2", est.Processed())
	}
}
