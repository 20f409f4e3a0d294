package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rept"
)

// FuzzParseEdgeLine differentially fuzzes the zero-copy line scanner
// against the encoding/json reference: whenever the fast path accepts a
// line, the reference decode must succeed and produce the same u, v, and
// op. (The fast path declining a line is always safe — the handler falls
// back — but accepting with different semantics would silently corrupt
// ingest.)
func FuzzParseEdgeLine(f *testing.F) {
	f.Add([]byte(`{"u":1,"v":2}`))
	f.Add([]byte(`{"v":2,"u":1,"op":"del"}`))
	f.Add([]byte(`{ "u" : 7 , "v" : 9 , "op" : "add" }`))
	f.Add([]byte(`{"u":4294967295,"v":0}`))
	f.Add([]byte(`{"u":01,"v":2}`))
	f.Add([]byte(`{"u":1,"v":2,}`))
	f.Add([]byte(`{"u":1,"v":2} `))
	f.Add([]byte(`{"op":"delete","u":3,"v":4}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		u, v, op, ok := parseEdgeLine(line)
		if !ok {
			return
		}
		var el edgeLine
		if err := json.Unmarshal(line, &el); err != nil {
			t.Fatalf("fast path accepted %q but encoding/json rejects it: %v", line, err)
		}
		if el.U == nil || el.V == nil {
			t.Fatalf("fast path accepted %q but reference says u/v missing", line)
		}
		if *el.U != u || *el.V != v {
			t.Fatalf("fast path (%d, %d) disagrees with reference (%d, %d) on %q", u, v, *el.U, *el.V, line)
		}
		wantOp := opNone
		switch el.Op {
		case "add":
			wantOp = opAdd
		case "del", "delete":
			wantOp = opDel
		case "":
		default:
			t.Fatalf("fast path accepted %q with op %q it should have declined", line, el.Op)
		}
		if op != wantOp {
			t.Fatalf("fast path op %d disagrees with reference %d on %q", op, wantOp, line)
		}
	})
}

// FuzzIngestNDJSON throws arbitrary bytes at the NDJSON edge parser
// through the real handler, on a fully-dynamic estimator so "op" lines
// reach the deletion path: whatever the body, POST and DELETE /edges
// must answer 200 or 400 and never panic — arbitrary deletion sequences
// (edges never inserted, double deletes) must be absorbed. One estimator
// is shared across iterations (and fuzz workers — Concurrent is
// goroutine-safe), so state accumulates the way it does on a long-lived
// server.
func FuzzIngestNDJSON(f *testing.F) {
	est, err := rept.NewConcurrent(rept.ConcurrentConfig{M: 2, C: 4, Seed: 1, TrackLocal: true, FullyDynamic: true})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(est)

	f.Add([]byte("{\"u\":1,\"v\":2}\n{\"u\":2,\"v\":3}\n"))
	f.Add([]byte("{\"u\":1,\"v\":1}\n"))          // self-loop
	f.Add([]byte("{\"u\":1}\n"))                  // missing v
	f.Add([]byte("{\"u\":-1,\"v\":2}\n"))         // negative id
	f.Add([]byte("{\"u\":4294967296,\"v\":0}\n")) // uint32 overflow
	f.Add([]byte("{\"u\":1,\"v\":2}"))            // no trailing newline
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("not json at all"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte("{\"u\":1e99,\"v\":2}\n"))
	f.Add([]byte("[1,2]\n"))
	f.Add([]byte("{\"u\":null,\"v\":2}\n"))
	f.Add([]byte("{\"u\":1,\"v\":2,\"op\":\"del\"}\n"))                                   // delete (maybe absent)
	f.Add([]byte("{\"u\":1,\"v\":2,\"op\":\"add\"}\n{\"u\":1,\"v\":2,\"op\":\"del\"}\n")) // insert+delete
	f.Add([]byte("{\"u\":5,\"v\":6,\"op\":\"del\"}\n{\"u\":5,\"v\":6,\"op\":\"del\"}\n")) // double delete
	f.Add([]byte("{\"u\":1,\"v\":2,\"op\":\"upsert\"}\n"))                                // unknown op
	f.Add([]byte("{\"u\":1,\"v\":2,\"op\":7}\n"))                                         // non-string op
	f.Add([]byte("{\"u\":3,\"v\":3,\"op\":\"del\"}\n"))                                   // self-loop delete

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			req := httptest.NewRequest(method, "/edges", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Errorf("%s /edges with %q: status %d, want 200 or 400", method, body, rec.Code)
			}
		}
	})
}
