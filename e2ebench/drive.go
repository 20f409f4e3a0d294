package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"rept/internal/graph"
)

// conn is one client connection. Its requests are sequential, so a
// keep-alive transport capped at one connection reuses a single socket.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON answer into into. A transport
// error or a non-2xx status is a failure.
func (c *conn) do(method, path string, body []byte, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if into != nil {
		if err := json.Unmarshal(b, into); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// tally is what the client saw on one or more connections.
type tally struct {
	ackMs, queryMs, staleMs, lateMs []float64
	ackAt, queryAt                  []time.Time // when each ack and query answer arrived
	attempted, failed               int
	accepted                        uint64 // sum of acknowledged "accepted"
	acked                           [2]int // events of each substream acknowledged, always a prefix
	end                             time.Time
	err                             error // first failure
}

func (t *tally) add(o *tally) {
	t.ackMs = append(t.ackMs, o.ackMs...)
	t.queryMs = append(t.queryMs, o.queryMs...)
	t.staleMs = append(t.staleMs, o.staleMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.ackAt = append(t.ackAt, o.ackAt...)
	t.queryAt = append(t.queryAt, o.queryAt...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.accepted += o.accepted
	t.acked[0] += o.acked[0]
	t.acked[1] += o.acked[1]
	if o.end.After(t.end) {
		t.end = o.end
	}
	if t.err == nil {
		t.err = o.err
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// request sends one request that was due at due and records it: the
// answer, how late the generator itself was, and the latency. Lateness
// counts from when the request could first go out, due or the previous
// answer on the connection, whichever is later, so it shows the client's
// own delays (scheduling on a shared machine, GC, encoding) and not the
// server's. Latency counts from the send in a closed loop; in an open loop
// it counts from due, so a stall is also charged to the requests queued
// behind it, less the generator's own lateness. sub >= 0 marks an ingest
// body of n events of that substream; anything else is a view-backed
// query. It reports false on a failure, which is never retried.
func (t *tally) request(c *conn, method, path string, body []byte, due time.Time, open bool, sub, n int) bool {
	start := time.Now()
	ready := due
	if t.end.After(ready) {
		ready = t.end
	}
	late := max(start.Sub(ready), 0)
	t.lateMs = append(t.lateMs, ms(late))
	t.attempted++
	var ans struct {
		Accepted uint64   `json:"accepted"`
		AgeMs    *float64 `json:"ageMs"`
	}
	err := c.do(method, path, body, &ans)
	t.end = time.Now()
	if err == nil && sub < 0 && ans.AgeMs == nil {
		err = fmt.Errorf("%s %s: answer carries no ageMs", method, path)
	}
	if err != nil {
		t.failed++
		if t.err == nil {
			t.err = err
		}
		return false
	}
	from := start
	if open {
		from = due.Add(late)
	}
	if sub >= 0 {
		t.ackMs = append(t.ackMs, ms(t.end.Sub(from)))
		t.ackAt = append(t.ackAt, t.end)
		t.accepted += ans.Accepted
		t.acked[sub] += n
		return true
	}
	t.queryMs = append(t.queryMs, ms(t.end.Sub(from)))
	t.queryAt = append(t.queryAt, t.end)
	t.staleMs = append(t.staleMs, *ans.AgeMs)
	return true
}

// preload posts the first events of each substream back to back, one
// substream per connection, so the window starts on a graph of the size
// the workload needs. It stops a connection at its first failure.
func preload(conns [2]*conn, subs [2][]graph.Update, events int) *tally {
	var parts [2]*tally
	done := make(chan struct{})
	for i := range parts {
		go func() {
			t := &tally{}
			var buf []byte
			for _, ups := range chunk(subs[i][:events], preloadBody) {
				buf = appendBody(buf[:0], ups)
				if !t.request(conns[i], "POST", "/edges", buf, time.Now(), false, i, len(ups)) {
					break
				}
			}
			parts[i] = t
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	t := &tally{}
	t.add(parts[0])
	t.add(parts[1])
	return t
}

// openLoop sends one connection's schedule from t0 until end: an ingest
// body every bodyEvery, and queries as a Poisson process with mean gap
// queryEvery (0: none), the two streams merged by due time. Queries arrive
// at random, as from independent users: a fixed period would phase-lock
// with the publisher's ticker and make staleness depend on the phase a run
// happened to start in. body returns false when the connection's
// substreams are used up.
func openLoop(c *conn, t0, end time.Time, bodyEvery, queryEvery time.Duration, rng *rand.Rand,
	body func() (b []byte, sub, n int, ok bool), query func() (method, path string, b []byte)) *tally {
	t := &tally{}
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(queryEvery)) }
	nextBody, nextQuery := t0, t0.Add(gap())
	for bodyEvery > 0 || queryEvery > 0 {
		isBody := bodyEvery > 0 && (queryEvery == 0 || nextBody.Before(nextQuery))
		due := nextQuery
		if isBody {
			due = nextBody
		}
		if !due.Before(end) {
			break
		}
		method, path := "POST", "/edges"
		var b []byte
		sub, n := -1, 0
		if isBody {
			var ok bool
			if b, sub, n, ok = body(); !ok {
				break
			}
			nextBody = nextBody.Add(bodyEvery)
		} else {
			method, path, b = query()
			nextQuery = nextQuery.Add(gap())
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if !t.request(c, method, path, b, due, true, sub, n) {
			break
		}
	}
	return t
}

// window is the timed part of a run: every workload is an open loop at
// fixed rates on its two connections. With two writers each connection
// posts its own substream and sends half the queries; with one, the first
// connection posts both substreams' bodies alternately and the second
// sends every query. It returns what the client saw and when the window
// started; it lasts until the last answer.
func (w *workload) window(conns [2]*conn, subs [2][]graph.Update, seconds int, seed int64) (*tally, time.Time) {
	var bodies [2][][]graph.Update
	for i := range bodies {
		bodies[i] = chunk(subs[i][w.preload:], w.body)
	}
	bodyEvery := time.Duration(float64(time.Second) * float64(w.body) * float64(w.writers) / w.eventRate)
	queryEvery := time.Duration(float64(time.Second) * float64(w.writers) / w.queryRate)
	qm := &queryMix{
		rng:   rand.New(rand.NewPCG(uint64(seed), 0x5eed)),
		kinds: w.queryKinds,
		nodes: w.nodes,
		known: w.preload / 8,
	}
	var mu sync.Mutex // the two connections share the query generator
	query := func() (string, string, []byte) {
		mu.Lock()
		defer mu.Unlock()
		method, path, b := qm.next()
		return method, path, append([]byte(nil), b...)
	}

	t0 := time.Now()
	end := t0.Add(time.Duration(seconds) * time.Second)
	var parts [2]*tally
	done := make(chan struct{})
	for i := range parts {
		// Connection i writes substream i, or both when it is the only
		// writer; next[s] is the next body of substream s it sends.
		mine := []int{i}
		if w.writers == 1 {
			mine = []int{0, 1}
		}
		be, qe := bodyEvery, queryEvery
		if w.writers == 1 {
			if i == 0 {
				qe = 0
			} else {
				be = 0
			}
		}
		var next [2]int
		var buf []byte
		k := 0
		body := func() ([]byte, int, int, bool) {
			s := mine[k%len(mine)]
			k++
			if next[s] >= len(bodies[s]) {
				return nil, 0, 0, false
			}
			ups := bodies[s][next[s]]
			next[s]++
			buf = appendBody(buf[:0], ups)
			return buf, s, len(ups), true
		}
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
		go func() {
			parts[i] = openLoop(conns[i], t0, end, be, qe, rng, body, query)
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	t := &tally{}
	t.add(parts[0])
	t.add(parts[1])
	return t, t0
}
