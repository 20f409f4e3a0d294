package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rept"
	"rept/internal/control"
	"rept/internal/obs"
)

// maxBodyBatch is the most parsed NDJSON events buffered before a
// forced hand-off to the estimator. Whole request bodies below it are
// ingested by ONE ApplyBatch call (one pass through the ingest mutex,
// handed to the shards as segments of at most 1024 events — the
// amortization ApplyBatch exists for); it bounds per-request memory for
// unbounded streaming bodies at ~1 MiB of events.
const maxBodyBatch = 65536

// maxLineLen bounds one NDJSON line (1 MiB, matching the stream reader).
const maxLineLen = 1 << 20

// maxQueryNodes bounds one POST /query batch.
const maxQueryNodes = 100_000

// edgeLine is one NDJSON ingest record: {"u": 1, "v": 2} with an
// optional "op" of "add" (default) or "del". Deletions additionally
// require the server to run with -dynamic.
type edgeLine struct {
	U  *uint32 `json:"u"`
	V  *uint32 `json:"v"`
	Op string  `json:"op"`
}

// endpoints is the fixed per-endpoint request-counter key set; paths
// outside it count under "other".
var endpoints = []string{
	"/edges", "/estimate", "/local", "/topk", "/cc", "/query",
	"/stats", "/metrics", "/checkpoint", "/healthz", "/readyz",
	"/debug/flight", "other",
}

// Server exposes a Concurrent REPT estimator over HTTP. All handlers are
// safe for concurrent requests; ingestion from any number of clients maps
// directly onto Concurrent's goroutine-safe Add path, and queries answer
// from the estimator's epoch views (see rept.Concurrent.StartViews), so
// read throughput does not collapse under ingest. Every view-backed
// response reports the epoch it answered from, its wall-clock age, and
// the processed count it describes; `?fresh=1` forces a fresh barrier
// epoch first (the SnapshotNow escape hatch over HTTP).
type Server struct {
	est      *rept.Concurrent
	views    *rept.Views
	mux      *http.ServeMux
	start    time.Time
	requests atomic.Uint64
	counters map[string]*obs.Counter

	// tele is the estimator's telemetry bundle (or a private one when the
	// estimator was built without ConcurrentConfig.Telemetry); its
	// registry backs /metrics and its flight recorder /debug/flight. pipe
	// is the stage-instrument bundle the ingest handler records parse
	// latency into.
	tele *rept.Telemetry
	pipe *obs.Pipeline

	// ready is the /readyz state: true once construction finished (the
	// estimator recovered and the first view published), false again
	// after Stop — the LB-drain signal /healthz (liveness) never sends.
	ready atomic.Bool

	// Structured request logging (SetAccessLog): accessLog receives one
	// record per request when logAll, and a warning for requests slower
	// than slow (0 disables the slow path). reqSeq numbers requests.
	accessLog *slog.Logger
	logAll    bool
	slow      time.Duration
	reqSeq    atomic.Uint64

	// durable routes ingest through the write-ahead log: /edges responds
	// only after the estimator acknowledges durability, and a WAL failure
	// turns into a 500 with the events NOT counted as accepted. It also
	// enables POST /checkpoint.
	durable bool

	// ctrl is the adaptive memory controller (-mem-budget); nil without a
	// budget. When set, /edges sheds with 429 + Retry-After while the
	// controller reports budget overrun — distinct from the 503 shutdown
	// path — and /stats and /readyz carry the budget posture.
	ctrl *control.Controller

	// mu guards estimator access against Stop: handlers hold the read
	// lock around each estimator call, Stop takes the write lock to
	// drain them before the estimator is closed underneath.
	mu      sync.RWMutex
	closing bool
}

// NewServer wraps est in an HTTP API. The caller keeps ownership of est
// (the server never closes it). Views must either already be started on
// est (main starts them with flag-driven intervals) or NewServer starts
// them with defaults. POST /checkpoint is enabled when est is durable.
func NewServer(est *rept.Concurrent) *Server {
	views := est.Views()
	if views == nil {
		if v, err := est.StartViews(rept.ViewConfig{}); err == nil {
			views = v
		} else {
			// The only error is "already started": someone else won the
			// race, so their publisher is registered and non-nil.
			views = est.Views()
		}
	}
	tele := est.Telemetry()
	if tele == nil {
		// An uninstrumented estimator still gets a registry so /metrics
		// works; the pipeline stage histograms then record only what the
		// server itself observes (parse latency).
		tele = rept.NewTelemetry()
	}
	s := &Server{
		est:      est,
		views:    views,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		tele:     tele,
		pipe:     tele.Pipeline(),
		durable:  est.Durable(),
		counters: make(map[string]*obs.Counter, len(endpoints)),
	}
	s.registerMetrics()
	s.mux.HandleFunc("/edges", s.handleEdges)
	s.mux.HandleFunc("/estimate", s.handleEstimate)
	s.mux.HandleFunc("/local", s.handleLocal)
	s.mux.HandleFunc("/topk", s.handleTopK)
	s.mux.HandleFunc("/cc", s.handleCC)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	// Construction implies the estimator recovered (WAL replay happens in
	// ResumeDurable, before NewServer can run) and the first view
	// published (StartViews publishes epoch 1 synchronously).
	s.ready.Store(true)
	return s
}

// SetController attaches the adaptive memory controller and registers
// its /metrics series (budget, adaptation and shed counters). Call
// before serving, at most once; the ingest handler, /stats, and /readyz
// consult the controller from then on. The caller owns the controller's
// tick loop — the server only reads its state.
func (s *Server) SetController(c *control.Controller) {
	s.ctrl = c
	reg := s.tele.Registry()
	st := c.Status()
	reg.GaugeFunc("rept_mem_budget_bytes",
		"Hard memory budget (-mem-budget); ingest sheds at or above it.",
		func() float64 { return float64(st.Budget) })
	reg.GaugeFunc("rept_mem_soft_limit_bytes",
		"Soft watermark (90% of the budget); downsampling starts here.",
		func() float64 { return float64(st.SoftLimit) })
	reg.GaugeFunc("rept_mem_state",
		"Controller posture: 0 normal, 1 pressure (downsampling), 2 shedding.",
		func() float64 { return float64(c.State()) })
	reg.CounterFunc("rept_adaptations_total",
		"Sampling-probability downsample events driven by the memory controller.",
		c.Adaptations)
	reg.CounterFunc("rept_shed_requests_total",
		"Ingest requests refused with 429 under the memory budget.",
		c.ShedTotal)
}

// SetAccessLog enables structured request logging on l: every request at
// Info level when logAll, plus a Warn for any request slower than slow
// (0 disables the slow-request path). Call before serving.
func (s *Server) SetAccessLog(l *slog.Logger, logAll bool, slow time.Duration) {
	s.accessLog = l
	s.logAll = logAll
	s.slow = slow
}

// registerMetrics installs every /metrics series on the telemetry
// registry. All series are read at scrape time from atomics or the last
// published view — never through a barrier — so scrapes stay cheap and
// keep answering through shutdown. Called once per server; the registry
// panics on duplicates, so two servers must not share one telemetry.
func (s *Server) registerMetrics() {
	reg := s.tele.Registry()
	est := s.est
	views := s.views
	reg.CounterFunc("rept_processed_edges_total",
		"Non-loop edge events accepted, insertions plus deletions (live).", est.Processed)
	reg.CounterFunc("rept_deleted_edges_total",
		"Non-loop edge deletion events accepted (live).", est.Deleted)
	reg.CounterFunc("rept_self_loops_total",
		"Self-loop arrivals skipped (live).", est.SelfLoops)
	reg.GaugeFunc("rept_sampled_edges",
		"Edges stored across all logical processors at the view prefix.",
		func() float64 { return float64(views.View().SampledEdges) })
	reg.CounterFunc("rept_eta_saturations_total",
		"Per-edge eta counter clamps at the view prefix (non-zero flags an adversarially hot edge).",
		func() uint64 { return views.View().EtaSaturations })
	reg.GaugeFunc("rept_shards",
		"Engine shard count.", func() float64 { return float64(est.Shards()) })
	// rept_view_epoch and rept_view_processed_edges were historically
	// declared counter, but both reset when the server restores from a
	// snapshot or WAL checkpoint — they are gauges, retyped in place.
	reg.GaugeFunc("rept_view_epoch",
		"Epoch number of the current view (resets on restore).",
		func() float64 { return float64(views.View().Epoch) })
	reg.GaugeFunc("rept_view_age_seconds",
		"Wall-clock age of the current view.",
		func() float64 { return views.View().Age().Seconds() })
	reg.GaugeFunc("rept_view_processed_edges",
		"Non-loop edges at the current view's prefix (resets on restore).",
		func() float64 { return float64(views.View().Processed) })
	reg.CounterFunc("rept_view_full_publishes_total",
		"View epochs that ranked every node instead of merging a delta (the first epoch, after a downsample, past the delta cap, a weakened ranked node).",
		views.FullPublishes)
	reg.GaugeFunc("rept_uptime_seconds",
		"Server uptime.", func() float64 { return time.Since(s.start).Seconds() })
	// Memory ledger: one snapshot per scrape (OnCollect), fanned out into
	// per-component series — accounting is always on, so these register
	// unconditionally.
	var memSnap rept.MemStats
	reg.OnCollect(func() { memSnap = est.MemStats() })
	memVec := reg.GaugeVec("rept_mem_bytes",
		"Accounted backing bytes by storage component (capacity-granular ledger).",
		"component")
	comps := make([]string, 0, len(est.MemStats().ByComponent))
	for name := range est.MemStats().ByComponent {
		comps = append(comps, name)
	}
	sort.Strings(comps)
	for _, name := range comps {
		name := name
		memVec.Func(name, func() float64 { return float64(memSnap.ByComponent[name]) })
	}
	reg.GaugeFunc("rept_mem_heap_bytes",
		"Accounted process-memory total (every component except wal_segments); the budget is enforced against this.",
		func() float64 { return float64(memSnap.HeapBytes) })
	reg.GaugeFunc("rept_sample_shift",
		"Cumulative downsampling shift k: effective p = 1/(m*2^k).",
		func() float64 { return float64(est.SampleShift()) })
	reg.GaugeFunc("rept_sample_probability",
		"Effective per-edge sampling probability after adaptation.",
		est.SampleProbability)
	reg.GaugeFunc("rept_variance_bound",
		"Plug-in variance bound of the global estimate at the effective sampling probability; steps up after every adaptation.",
		est.VarianceBound)
	if s.durable {
		reg.CounterFunc("rept_wal_appended_events_total",
			"Events written into the write-ahead log.",
			func() uint64 { return est.WALStats().AppendedPos })
		reg.CounterFunc("rept_wal_durable_events_total",
			"Events covered by a WAL sync (survive a crash).",
			func() uint64 { return est.WALStats().DurablePos })
		reg.CounterFunc("rept_wal_checkpoint_events_total",
			"Events folded into the latest WAL checkpoint.",
			func() uint64 { return est.WALStats().CheckpointPos })
		reg.GaugeFunc("rept_wal_sync_lag_events",
			"Appended-but-unsynced events (the crash loss window).",
			func() float64 { st := est.WALStats(); return float64(st.AppendedPos - st.DurablePos) })
		reg.GaugeFunc("rept_wal_segments",
			"WAL segment files on disk, including the active one.",
			func() float64 { return float64(est.WALStats().Segments) })
		reg.GaugeFunc("rept_wal_active_segment_bytes",
			"Size of the active WAL segment.",
			func() float64 { return float64(est.WALStats().ActiveBytes) })
		reg.GaugeFunc("rept_wal_live_bytes",
			"Live log bytes on disk: sealed clean extents plus the active segment (compaction shrinks it).",
			func() float64 { return float64(est.WALStats().LiveBytes) })
		reg.GaugeFunc("rept_wal_failed",
			"1 when the WAL has failed and durable ingest is refusing events.",
			func() float64 {
				if est.WALStats().Failed {
					return 1
				}
				return 0
			})
		reg.CounterFunc("rept_wal_compaction_failures_total",
			"Automatic WAL compactions that failed.", est.WALCompactionFailures)
	}
	reg.CounterFunc("rept_http_requests_all_total",
		"HTTP requests served, all endpoints.", s.requests.Load)
	// The deprecated rept_http_requests_total_all alias was kept exactly
	// one release past the rename and is now gone; dashboards must use
	// rept_http_requests_all_total.
	httpVec := reg.CounterVec("rept_http_requests_total",
		"HTTP requests served per endpoint.", "endpoint")
	// Children register in sorted order so scrapes are diff-stable.
	eps := append([]string(nil), endpoints...)
	sort.Strings(eps)
	for _, ep := range eps {
		s.counters[ep] = httpVec.With(ep)
	}
}

// statusRecorder captures the response status and size for access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if c, ok := s.counters[r.URL.Path]; ok {
		c.Inc()
	} else {
		s.counters["other"].Inc()
	}
	if s.accessLog == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	id := s.reqSeq.Add(1)
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	d := time.Since(start)
	if s.slow > 0 && d >= s.slow {
		s.accessLog.Warn("slow request",
			"req_id", id, "method", r.Method, "path", r.URL.Path,
			"status", rec.status, "bytes", rec.bytes,
			"dur_ms", float64(d.Microseconds())/1e3,
			"slow_threshold_ms", float64(s.slow.Microseconds())/1e3,
			"remote", r.RemoteAddr)
	} else if s.logAll {
		s.accessLog.Info("request",
			"req_id", id, "method", r.Method, "path", r.URL.Path,
			"status", rec.status, "bytes", rec.bytes,
			"dur_ms", float64(d.Microseconds())/1e3,
			"remote", r.RemoteAddr)
	}
}

// Stop marks the server as shutting down and waits for in-flight
// estimator calls to finish. After Stop, handlers answer 503 instead of
// touching the estimator, so the owner may safely Close it even while
// lingering connections (e.g. after an http.Server.Shutdown timeout) are
// still being served.
func (s *Server) Stop() {
	s.ready.Store(false)
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
}

// estCall runs f under the read lock unless the server is stopping.
// Handlers must route every estimator access through it.
func (s *Server) estCall(f func()) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closing {
		return false
	}
	f()
	return true
}

// fetchView returns the view to answer from: the current epoch, or a
// freshly published one when the request carries fresh=1. false means the
// server is stopping (handler must answer 503).
func (s *Server) fetchView(r *http.Request) (*rept.View, bool) {
	var v *rept.View
	ok := s.estCall(func() {
		if r.URL.Query().Get("fresh") == "1" {
			v = s.views.Refresh()
		} else {
			v = s.views.View()
		}
	})
	return v, ok
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeStopping(w http.ResponseWriter) {
	writeError(w, http.StatusServiceUnavailable, "server is shutting down")
}

// viewMeta is the staleness report embedded in every view-backed
// response: which epoch answered, how old it is, and the stream prefix
// (processed count) it describes.
type viewMeta struct {
	Epoch         uint64  `json:"epoch"`
	AgeMs         float64 `json:"ageMs"`
	AsOfProcessed uint64  `json:"asOfProcessed"`
}

func metaOf(v *rept.View) viewMeta {
	return viewMeta{
		Epoch:         v.Epoch,
		AgeMs:         float64(v.Age().Microseconds()) / 1e3,
		AsOfProcessed: v.Processed,
	}
}

// nodeJSON is one node's answer row. Degree appears only when the server
// tracks degrees, cc only when additionally the degree is >= 2.
type nodeJSON struct {
	V      uint32   `json:"v"`
	Local  float64  `json:"local"`
	Degree *uint32  `json:"degree,omitempty"`
	CC     *float64 `json:"cc,omitempty"`
}

func nodeRow(v *rept.View, n rept.NodeID) nodeJSON {
	return statRow(v, v.Stat(n))
}

// statRow converts an already-materialized NodeStat (e.g. a precomputed
// TopK entry); the view is asked only whether it tracks degrees.
func statRow(v *rept.View, st rept.NodeStat) nodeJSON {
	row := nodeJSON{V: uint32(st.Node), Local: st.Local}
	if _, tracked := v.DegreeOf(st.Node); tracked {
		d := st.Degree
		row.Degree = &d
	}
	if !math.IsNaN(st.CC) {
		cc := st.CC
		row.CC = &cc
	}
	return row
}

// ingestResponse summarizes one POST/DELETE /edges request.
type ingestResponse struct {
	// Accepted counts non-loop events ingested from this request body.
	// On a durable server (-wal-dir) an event counts as accepted only
	// once the write-ahead log has acknowledged it, so a 200 response is
	// a durability receipt for every accepted event.
	Accepted int `json:"accepted"`
	// Deleted counts how many of the accepted events were deletions.
	Deleted int `json:"deleted,omitempty"`
	// SelfLoops counts self-loop lines skipped in this request body.
	SelfLoops int `json:"selfLoops"`
	// Processed is the estimator's total non-loop event count afterwards
	// (all clients combined).
	Processed uint64 `json:"processed"`
	// Durable is true when the accepted events went through the
	// write-ahead log (the server runs with -wal-dir).
	Durable bool `json:"durable,omitempty"`
}

// ingestBuffers is the per-request scratch of handleEdges — the scanner's
// line buffer and the event batch — pooled so steady-state ingest does
// not allocate per request. The batch's backing array survives in the
// pool (Batch.Reset keeps it), so repeat requests of similar size reach
// a zero-allocation steady state.
type ingestBuffers struct {
	line  []byte
	batch rept.Batch
}

var ingestPool = sync.Pool{
	New: func() any {
		return &ingestBuffers{line: make([]byte, 0, 64*1024)}
	},
}

// handleEdges ingests NDJSON edge events: one {"u":..,"v":..} object per
// line, each carrying an optional "op" of "add" (default) or "del".
// POST defaults lines to insertions; DELETE defaults them to deletions
// (so `curl -X DELETE` with plain {"u":..,"v":..} lines unfollows edges),
// and either default can be overridden per line via "op". Deletion events
// require the server to run with -dynamic (409 otherwise). Blank lines
// are skipped. On a malformed line the request fails with 400 after
// reporting the line number; lines before it are already ingested
// (ingestion is streaming, not transactional) — unless the flush that
// hands them over is refused, which answers 503 (shutdown) or the
// sticky write-ahead-log 500 instead of the line's error.
//
// Lines are parsed by the zero-copy scanner in ndjson.go, falling back
// to encoding/json per line for anything outside the fast shape.
// Accepted/Deleted/SelfLoops count only events actually handed to the
// estimator: events parsed into a batch that a shutdown-refused flush
// drops are NOT reported as accepted (they were not ingested), so the
// counts in both success and error responses are exact.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		w.Header().Set("Allow", "POST, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "POST (insert) or DELETE (remove) NDJSON edge lines to /edges")
		return
	}
	// Load shedding: the memory controller refuses ingest BEFORE the body
	// is read — 429 + Retry-After while the budget is overrun, distinct
	// from the 503 shutdown path (the server is healthy and still serving
	// queries; the client should back off and retry).
	if c := s.ctrl; c != nil && c.ShouldShed() {
		c.CountShed()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "memory budget exceeded; ingest is shedding while the estimator adapts (retry shortly)")
		return
	}
	defaultDel := r.Method == http.MethodDelete
	dynamic := s.est.Config().FullyDynamic
	if defaultDel && !dynamic {
		writeError(w, http.StatusConflict, "edge deletions are disabled; start reptserve with -dynamic")
		return
	}
	bufs := ingestPool.Get().(*ingestBuffers)
	defer func() {
		bufs.batch.Reset()
		ingestPool.Put(bufs)
	}()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(bufs.line[:0], maxLineLen)

	var resp ingestResponse
	resp.Durable = s.durable
	batch := &bufs.batch
	batch.Reset()
	// pend tallies the events sitting in the unflushed batch; they are
	// credited to resp only once a flush hands them to the estimator.
	var pend struct{ accepted, deleted, loops int }
	// walErr is the sticky write-ahead-log failure: once set, no further
	// events are credited (durability is unknown for them at best) and
	// the request fails with 500.
	var walErr error
	// segStart opens the current parse segment: everything between two
	// flushes — reading the request body and decoding up to maxBodyBatch
	// NDJSON lines — is one rept_stage_parse_seconds observation.
	segStart := time.Now()
	// flush hands the whole parsed body (or a maxBodyBatch-long slab of
	// an oversized one) to the estimator as one batch; false
	// means the server is shutting down (503) or, on a durable server,
	// the log refused the batch (walErr set, 500) — either way the
	// batch's pending tallies are discarded, not reported, because the
	// events were not accepted under the response's contract.
	flush := func() bool {
		if batch.Len() == 0 {
			return true
		}
		d := time.Since(segStart)
		s.pipe.Parse.ObserveDuration(d)
		s.pipe.Flight.Record(obs.KindParse, -1, uint64(batch.Len()), d)
		credited := false
		ok := s.estCall(func() {
			if s.durable {
				walErr = s.est.ApplyBatchDurable(batch)
				credited = walErr == nil
			} else {
				s.est.ApplyBatch(batch)
				credited = true
			}
		})
		batch.Reset()
		segStart = time.Now()
		if ok && credited {
			resp.Accepted += pend.accepted
			resp.Deleted += pend.deleted
			resp.SelfLoops += pend.loops
		}
		pend.accepted, pend.deleted, pend.loops = 0, 0, 0
		return ok && credited
	}
	// failFlush writes the response for a failed flush: 500 for a WAL
	// failure, 503 for shutdown.
	failFlush := func() {
		if walErr != nil {
			writeError(w, http.StatusInternalServerError, "write-ahead log: %v (accepted %d events)", walErr, resp.Accepted)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "server is shutting down (accepted %d events)", resp.Accepted)
	}
	// reject ends a request at a bad line or a body read error: it
	// flushes the events parsed before it and answers code, with the
	// accepted count as the format's last argument. A failed flush
	// answers as failFlush does instead: its refusal is the outcome of
	// every event the request carried, the bad line aside.
	reject := func(code int, format string, args ...any) {
		if !flush() {
			failFlush()
			return
		}
		writeError(w, code, format, append(args, resp.Accepted)...)
	}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		u, v, op, fast := parseEdgeLine(raw)
		var opName string
		if fast {
			switch op {
			case opAdd:
				opName = "add"
			case opDel:
				opName = "del"
			}
		} else {
			// Outside the fast shape: let encoding/json produce the exact
			// historical behavior (and error text).
			var el edgeLine
			if err := json.Unmarshal(raw, &el); err != nil {
				reject(http.StatusBadRequest, "line %d: %v (accepted %d events before it)", line, err)
				return
			}
			if el.U == nil || el.V == nil {
				reject(http.StatusBadRequest, "line %d: need both \"u\" and \"v\" (accepted %d events before it)", line)
				return
			}
			u, v, opName = *el.U, *el.V, el.Op
		}
		del := defaultDel
		switch opName {
		case "": // keep the method's default
		case "add":
			del = false
		case "del", "delete":
			del = true
		default:
			reject(http.StatusBadRequest, "line %d: op %q, want \"add\" or \"del\" (accepted %d events before it)", line, opName)
			return
		}
		if del && !dynamic {
			reject(http.StatusConflict, "line %d: edge deletions are disabled; start reptserve with -dynamic (accepted %d events before it)", line)
			return
		}
		// Self-loops ride along so the estimator's own SelfLoops counter
		// (surfaced by /estimate) stays consistent; ApplyBatch skips them.
		if u == v {
			pend.loops++
		} else {
			pend.accepted++
			if del {
				pend.deleted++
			}
		}
		batch.Push(rept.Update{U: rept.NodeID(u), V: rept.NodeID(v), Del: del})
		if batch.Len() >= maxBodyBatch && !flush() {
			failFlush()
			return
		}
	}
	if err := sc.Err(); err != nil {
		reject(http.StatusBadRequest, "reading body: %v (accepted %d events)", err)
		return
	}
	if !flush() {
		failFlush()
		return
	}
	resp.Processed = s.est.Processed()
	writeJSON(w, http.StatusOK, resp)
}

// estimateResponse is the GET /estimate payload. StdErr and Variance are
// omitted when the configuration does not track the η counters they need
// (JSON has no NaN). Processed and SelfLoops are the tallies AT the
// view's prefix (equal to asOfProcessed for the former).
type estimateResponse struct {
	viewMeta
	Global   float64  `json:"global"`
	Variance *float64 `json:"variance,omitempty"`
	StdErr   *float64 `json:"stderr,omitempty"`
	EtaHat   float64  `json:"etaHat"`
	// Processed counts non-loop events (insertions plus deletions) at the
	// view's prefix; Deleted the deletions alone (omitted when zero).
	Processed uint64 `json:"processed"`
	Deleted   uint64 `json:"deleted,omitempty"`
	SelfLoops uint64 `json:"selfLoops"`
}

// handleEstimate serves GET /estimate from the current epoch view (no
// barrier, no cross-shard coordination): the global estimate with its
// variance when tracked, plus the epoch/staleness report. `?fresh=1`
// publishes a fresh epoch first.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /estimate")
		return
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	resp := estimateResponse{
		viewMeta:  metaOf(v),
		Global:    v.Global,
		EtaHat:    v.EtaHat,
		Processed: v.Processed,
		Deleted:   v.Deleted,
		SelfLoops: v.SelfLoops,
	}
	if !math.IsNaN(v.Variance) {
		vv, se := v.Variance, math.Sqrt(v.Variance)
		resp.Variance, resp.StdErr = &vv, &se
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseNode pulls the required uint32 node id from query parameter "v".
func parseNode(w http.ResponseWriter, r *http.Request) (rept.NodeID, bool) {
	q := r.URL.Query().Get("v")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter v")
		return 0, false
	}
	v, err := strconv.ParseUint(q, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "v must be a uint32 node id: %v", err)
		return 0, false
	}
	return rept.NodeID(v), true
}

// handleLocal serves GET /local?v=<node>: the local triangle estimate of
// one node, answered from the current view in O(1). 409 when the server
// runs without -local.
func (s *Server) handleLocal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /local?v=<node>")
		return
	}
	if !s.est.Config().TrackLocal {
		writeError(w, http.StatusConflict, "local tracking is disabled; start reptserve with -local")
		return
	}
	n, ok := parseNode(w, r)
	if !ok {
		return
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		viewMeta
		V     uint32  `json:"v"`
		Local float64 `json:"local"`
	}{metaOf(v), uint32(n), v.LocalOf(n)})
}

// handleTopK serves GET /topk?k=<n>: the strongest nodes by local
// triangle estimate, straight from the view's precomputed ranking
// (O(k) per request). k defaults to, and is capped by, the -topk ranking
// size. 409 without -local.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /topk?k=<n>")
		return
	}
	if !s.est.Config().TrackLocal {
		writeError(w, http.StatusConflict, "top-k needs local tracking; start reptserve with -local")
		return
	}
	limit := s.views.Config().TopK
	k := limit
	if q := r.URL.Query().Get("k"); q != "" {
		kq, err := strconv.Atoi(q)
		if err != nil || kq < 0 {
			writeError(w, http.StatusBadRequest, "k must be a non-negative integer")
			return
		}
		if kq > limit {
			writeError(w, http.StatusBadRequest, "k = %d exceeds the precomputed ranking size %d (raise -topk)", kq, limit)
			return
		}
		k = kq
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	top := v.Top(k)
	rows := make([]nodeJSON, len(top))
	for i, st := range top {
		rows[i] = statRow(v, st)
	}
	writeJSON(w, http.StatusOK, struct {
		viewMeta
		K     int        `json:"k"`
		Nodes []nodeJSON `json:"nodes"`
	}{metaOf(v), len(rows), rows})
}

// handleCC serves GET /cc?v=<node>: the node's plug-in local clustering
// coefficient 2·τ̂_v/(d·(d−1)). The cc field is omitted when undefined
// (degree < 2). 409 unless the server tracks both locals and degrees.
func (s *Server) handleCC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /cc?v=<node>")
		return
	}
	cfg := s.est.Config()
	if !cfg.TrackLocal || !cfg.TrackDegrees {
		writeError(w, http.StatusConflict, "clustering coefficients need local and degree tracking; start reptserve with -local")
		return
	}
	n, ok := parseNode(w, r)
	if !ok {
		return
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		viewMeta
		nodeJSON
	}{metaOf(v), nodeRow(v, n)})
}

// queryRequest is the POST /query body: a batch node lookup.
type queryRequest struct {
	Nodes []uint32 `json:"nodes"`
}

// handleQuery serves POST /query: one view lookup for a whole batch of
// nodes, every row answered from the SAME epoch (a sequence of /local
// calls could straddle epochs). 409 without -local.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST /query with {\"nodes\":[...]}")
		return
	}
	if !s.est.Config().TrackLocal {
		writeError(w, http.StatusConflict, "node queries need local tracking; start reptserve with -local")
		return
	}
	var req queryRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxLineLen))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	if len(req.Nodes) > maxQueryNodes {
		writeError(w, http.StatusBadRequest, "%d nodes exceeds the %d per-request cap", len(req.Nodes), maxQueryNodes)
		return
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	rows := make([]nodeJSON, len(req.Nodes))
	for i, n := range req.Nodes {
		rows[i] = nodeRow(v, rept.NodeID(n))
	}
	writeJSON(w, http.StatusOK, struct {
		viewMeta
		Results []nodeJSON `json:"results"`
	}{metaOf(v), rows})
}

// statsResponse is the GET /stats payload: the view/staleness state plus
// live ingest counters, in one place.
type statsResponse struct {
	viewMeta
	// StaleEdges is how many edges arrived after the view's prefix.
	StaleEdges uint64 `json:"staleEdges"`
	// Processed/Deleted/SelfLoops are the LIVE tallies (the view's are in
	// viewMeta and /estimate).
	Processed    uint64 `json:"processed"`
	Deleted      uint64 `json:"deleted"`
	SelfLoops    uint64 `json:"selfLoops"`
	SampledEdges int    `json:"sampledEdges"`
	// EtaSaturations counts η counter clamps at the view prefix; non-zero
	// flags an adversarially hot edge (η̂ is then a bounded
	// under-estimate).
	EtaSaturations uint64            `json:"etaSaturations"`
	Shards         int               `json:"shards"`
	TopK           int               `json:"topK"`
	IntervalMs     float64           `json:"viewIntervalMs"`
	Uptime         string            `json:"uptime"`
	Requests       map[string]uint64 `json:"requests"`
	// WAL is the write-ahead-log report; present only with -wal-dir.
	WAL *walStatsJSON `json:"wal,omitempty"`
	// Memory is the accounted-bytes ledger breakdown (always present —
	// accounting is always on).
	Memory *memStatsJSON `json:"memory"`
	// Budget is the adaptive controller's report; present only with
	// -mem-budget.
	Budget *control.Status `json:"budget,omitempty"`
}

// memStatsJSON is the /stats memory block: the component ledger plus the
// adaptive-sampling state it feeds.
type memStatsJSON struct {
	// ByComponent maps component names (adjacency, counters, degrees,
	// masks, rings, batches, wal_buffers, wal_segments, views) to
	// accounted backing bytes.
	ByComponent map[string]int64 `json:"byComponent"`
	// HeapBytes is the process-memory total the budget is enforced
	// against; WALSegmentBytes the disk-class live log footprint.
	HeapBytes       int64 `json:"heapBytes"`
	WALSegmentBytes int64 `json:"walSegmentBytes,omitempty"`
	// SampleShift/SampleProbability describe the effective sampling after
	// adaptation; VarianceBound is the plug-in accuracy price paid for it
	// (omitted when undefined).
	SampleShift       int      `json:"sampleShift"`
	SampleProbability float64  `json:"sampleProbability"`
	VarianceBound     *float64 `json:"varianceBound,omitempty"`
}

// memStats assembles the /stats memory block.
func (s *Server) memStats() *memStatsJSON {
	ms := s.est.MemStats()
	out := &memStatsJSON{
		ByComponent:       ms.ByComponent,
		HeapBytes:         ms.HeapBytes,
		WALSegmentBytes:   ms.WALSegmentBytes,
		SampleShift:       s.est.SampleShift(),
		SampleProbability: s.est.SampleProbability(),
	}
	if vb := s.est.VarianceBound(); !math.IsNaN(vb) && !math.IsInf(vb, 0) {
		out.VarianceBound = &vb
	}
	return out
}

// walStatsJSON is the /stats write-ahead-log block. All positions count
// accepted non-loop events since the estimator's birth.
type walStatsJSON struct {
	// AppendedPos/DurablePos/CheckpointPos are the log's three frontiers:
	// written into the active segment, covered by a sync, and folded into
	// the latest checkpoint.
	AppendedPos   uint64 `json:"appendedPos"`
	DurablePos    uint64 `json:"durablePos"`
	CheckpointPos uint64 `json:"checkpointPos"`
	// SyncLagEvents is AppendedPos-DurablePos: the events that would be
	// lost by a crash right now (bounded by the -wal-sync interval; ~0 in
	// batch mode).
	SyncLagEvents uint64 `json:"syncLagEvents"`
	// Segments counts log segment files (including the active one);
	// ActiveBytes is the active segment's size.
	Segments    int   `json:"segments"`
	ActiveBytes int64 `json:"activeBytes"`
	// Failed means the log refused a write or sync; durable ingest is
	// refusing events until restart.
	Failed bool `json:"failed"`
	// CompactionFailures counts automatic compactions that failed (the
	// log keeps growing until one succeeds).
	CompactionFailures uint64 `json:"compactionFailures,omitempty"`
}

// walStats assembles the /stats WAL block; nil when the server is not
// durable.
func (s *Server) walStats() *walStatsJSON {
	if !s.durable {
		return nil
	}
	st := s.est.WALStats()
	return &walStatsJSON{
		AppendedPos:        st.AppendedPos,
		DurablePos:         st.DurablePos,
		CheckpointPos:      st.CheckpointPos,
		SyncLagEvents:      st.AppendedPos - st.DurablePos,
		Segments:           st.Segments,
		ActiveBytes:        st.ActiveBytes,
		Failed:             st.Failed,
		CompactionFailures: s.est.WALCompactionFailures(),
	}
}

// handleStats serves GET /stats: epoch and staleness state, ingest
// counters, and per-endpoint request counts. Unlike /estimate it mixes
// view-prefix values (sampledEdges) with live tallies, each labeled.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /stats")
		return
	}
	v, ok := s.fetchView(r)
	if !ok {
		writeStopping(w)
		return
	}
	processed := s.est.Processed()
	reqs := make(map[string]uint64, len(s.counters))
	for ep, c := range s.counters {
		reqs[ep] = c.Value()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		viewMeta:       metaOf(v),
		StaleEdges:     processed - v.Processed,
		Processed:      processed,
		Deleted:        s.est.Deleted(),
		SelfLoops:      s.est.SelfLoops(),
		SampledEdges:   v.SampledEdges,
		EtaSaturations: v.EtaSaturations,
		Shards:         s.est.Shards(),
		TopK:           s.views.Config().TopK,
		IntervalMs:     float64(s.views.Config().Interval.Microseconds()) / 1e3,
		Uptime:         time.Since(s.start).Round(time.Millisecond).String(),
		Requests:       reqs,
		WAL:            s.walStats(),
		Memory:         s.memStats(),
		Budget:         s.budgetStatus(),
	})
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
// It touches only atomic counters and the last published view, so — like
// /healthz — it keeps answering through shutdown: scrapes never block on
// ingest and never take a barrier.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /metrics")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.tele.WritePrometheus(w)
}

// budgetStatus returns the controller's point-in-time report, or nil
// without -mem-budget.
func (s *Server) budgetStatus() *control.Status {
	if s.ctrl == nil {
		return nil
	}
	st := s.ctrl.Status()
	return &st
}

// handleReadyz serves GET /readyz, the load-balancer readiness signal:
// 200 once the estimator has recovered (WAL replay done) and the first
// view published, 503 from the moment Stop runs. Distinct from /healthz,
// which reports liveness and keeps answering 200 through a graceful
// drain. With -mem-budget the response carries the budget posture —
// shedding does NOT flip readiness (queries still serve; only ingest is
// refused, per-request, with 429).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
		})
		return
	}
	v := s.views.View()
	resp := map[string]any{
		"status":    "ready",
		"epoch":     v.Epoch,
		"processed": v.Processed,
	}
	if s.ctrl != nil {
		resp["budget"] = map[string]any{
			"state":    s.ctrl.State().String(),
			"shedding": s.ctrl.ShouldShed(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// defaultFlightEvents is the /debug/flight response cap when no ?n= is
// given: recent enough for a postmortem tail without shipping the whole
// multi-thousand-entry ring on every curl.
const defaultFlightEvents = 1024

// handleFlight serves GET /debug/flight: a JSON dump of the flight
// recorder — recent pipeline events (parse, dispatch, apply, barrier,
// WAL append/sync, view publish) with nanosecond timestamps and
// durations, oldest first. ?n= caps the dump to the NEWEST n events
// (default 1024; n larger than the ring returns everything recorded).
// "recorded" always reports the full ring occupancy, so a truncated
// dump is recognizable as one. The dump is lock-free on the recording
// side; a heavily concurrent writer can at worst drop a slot from one
// dump.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET /debug/flight")
		return
	}
	n := defaultFlightEvents
	if q := r.URL.Query().Get("n"); q != "" {
		nq, err := strconv.Atoi(q)
		if err != nil || nq < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		n = nq
	}
	events := s.tele.Flight().Events()
	recorded := len(events)
	if n < recorded {
		events = events[recorded-n:] // keep the newest n (events are oldest-first)
	}
	writeJSON(w, http.StatusOK, struct {
		Recorded int               `json:"recorded"`
		Returned int               `json:"returned"`
		Events   []obs.FlightEvent `json:"events"`
	}{recorded, len(events), events})
}

// checkpointResponse is the POST /checkpoint payload.
type checkpointResponse struct {
	// Processed is the estimator's non-loop edge count when the response
	// was built. The checkpoint itself is barrier-consistent at its own
	// prefix, which this count can only exceed (by edges that clients
	// streamed while the checkpoint was written).
	Processed uint64 `json:"processed"`
	// WAL reports the log after the compaction this request ran.
	WAL *walStatsJSON `json:"wal,omitempty"`
}

// handleCheckpoint serves POST /checkpoint: it compacts the write-ahead
// log, folding a barrier-consistent snapshot into the log directory as
// checkpoint.reptsnap (written to a temporary file, synced and renamed,
// so a crash mid-checkpoint never clobbers the previous one) and deleting
// the sealed segments it covers. Operators get an on-demand bound on
// recovery time, and the checkpoint file is a complete backup. Ingestion
// keeps running; edges streamed while the checkpoint is being taken land
// after its prefix. 409 when the server runs without -wal-dir.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST /checkpoint")
		return
	}
	if !s.durable {
		writeError(w, http.StatusConflict, "checkpointing needs a write-ahead log; start reptserve with -wal-dir <dir>")
		return
	}
	var resp checkpointResponse
	var compactErr error
	ok := s.estCall(func() {
		compactErr = s.est.CompactWAL()
		resp.Processed = s.est.Processed()
	})
	if !ok {
		writeStopping(w)
		return
	}
	if compactErr != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: wal compaction: %v", compactErr)
		return
	}
	resp.WAL = s.walStats()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"processed": s.est.Processed(),
		"shards":    s.est.Shards(),
		"epoch":     s.views.View().Epoch,
		"requests":  s.requests.Load(),
		"uptime":    time.Since(s.start).Round(time.Millisecond).String(),
	})
}
