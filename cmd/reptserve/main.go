// Command reptserve exposes a concurrency-safe REPT estimator as an HTTP
// service: many clients stream edges in, any client can query global and
// local triangle estimates mid-stream.
//
// Usage:
//
//	reptserve -addr :8080 -m 10 -c 40 [-shards 4 -local -dynamic -seed 1]
//	          [-view-interval 200ms -view-edges 0 -topk 100]
//	          [-wal-dir walspool [-wal-sync batch|250ms]
//	           [-wal-compact-every 500000] [-wal-segment-bytes 67108864]]
//	          [-mem-budget 256MiB [-mem-tick 1s]]
//
// Endpoints:
//
//	POST /edges       NDJSON body, one {"u":1,"v":2} object per line;
//	                  with -dynamic a line may carry "op":"del" to delete
//	DELETE /edges     same NDJSON body, lines default to deletions
//	                  (requires -dynamic)
//	GET  /estimate    global estimate (+ variance when tracked)
//	GET  /local?v=7   local estimate of node 7 (requires -local)
//	GET  /topk?k=10   heaviest nodes by local estimate (requires -local)
//	GET  /cc?v=7      local clustering coefficient (requires -local)
//	POST /query       batch node lookup: {"nodes":[1,2,3]}
//	GET  /stats       epoch/staleness state + ingest counters
//	GET  /metrics     Prometheus text format
//	POST /checkpoint  compact the write-ahead log (requires -wal-dir)
//	GET  /healthz     liveness and ingest counters
//	GET  /readyz      readiness: 200 only once recovery finished and the
//	                  first view published; 503 while draining
//	GET  /debug/flight  JSON dump of the flight recorder (recent pipeline
//	                  events with timestamps and durations)
//
// Queries answer from materialized epoch views, republished every
// -view-interval (and, with -view-edges N, whenever N new edges arrive):
// reads are lock-free and never block ingest, and every view-backed
// response reports the epoch it answered from, its age in milliseconds,
// and the processed count it describes. Append ?fresh=1 to /estimate,
// /local, /topk, /cc, or /query to force a fresh barrier epoch first
// (exact, but orders of magnitude more expensive under load).
//
// Example session:
//
//	printf '{"u":1,"v":2}\n{"u":2,"v":3}\n{"u":1,"v":3}\n' |
//	    curl -sS --data-binary @- http://localhost:8080/edges
//	curl -sS http://localhost:8080/estimate
//	curl -sS 'http://localhost:8080/topk?k=5&fresh=1'
//
// Fully-dynamic streams: with -dynamic the server accepts edge deletions
// (follow/unfollow churn, flow expiry) and every estimate tracks the NET
// triangle count of the live graph; see the rept package documentation
// for the estimator semantics. The flag is part of the log directory's
// fingerprint like the other statistical flags.
//
// Durability: -wal-dir is the server's one durable state. Every accepted
// edge event is appended to a segmented, CRC-checked log in that
// directory, and on restart — clean or after a kill — the server replays
// the log's own checkpoint plus the surviving tail before serving,
// announcing "wal recovered to position N" on stderr. The statistical
// flags (-m, -c, -shards, -seed, -local, -eta, -dynamic) must match the
// directory's fingerprint or the boot fails with an error naming the
// differing fields. With -wal-sync batch (the default) a 200 from POST
// /edges is a durability receipt: the response is sent only after the
// request's events are fsynced, so "accepted" events survive any crash; a
// sync failure fails the request with HTTP 500 and no events are credited.
// With -wal-sync <duration> the log is group-committed on that interval
// instead — ingest never waits on the disk, at the cost of losing at most
// the last interval's events on power failure (a kill -9 with a healthy
// disk still loses nothing); if the final group commit at shutdown fails,
// the process exits 1. Sealed segments are folded into an
// incremental checkpoint every -wal-compact-every events (and on demand
// via POST /checkpoint), bounding both replay time and disk usage;
// -wal-segment-bytes caps individual segment files. The WAL's
// append/durable/checkpoint positions, segment count, and failure counters
// are reported in the "wal" block of /stats and as rept_wal_* gauges in
// /metrics. Backup and migration are a file copy: after POST /checkpoint,
// the directory's checkpoint.reptsnap holds the whole state, and a server
// started with -wal-dir on an empty directory holding only that file
// resumes from it.
//
// Memory budgets: -mem-budget puts the estimator under an adaptive
// byte budget. Every storage layer reports its backing bytes to an
// always-on ledger (rept_mem_bytes{component=...} in /metrics, the
// "memory" block of /stats); the controller polls the ledger every
// -mem-tick and, while accounted memory is at or above the soft
// watermark (90% of the budget), halves the sampling probability once
// per tick, stream-consistently with REPT's unbiasing rescale — the
// estimate stays unbiased, the variance bound (rept_variance_bound)
// steps up, the view republishes, and memory falls. The sampled edge
// sets are the memory a budget can reclaim; the -topk ranking's bytes
// stay charged, so a budget below them ends in 429s. Only at the HARD
// budget does the server shed: POST /edges answers 429 with Retry-After
// until downsampling catches up — a healthy-server backpressure signal,
// distinct from the 503 shutdown path, and queries keep serving
// throughout (readiness stays 200, with the budget posture in the
// /readyz body). Downsampling refuses η-tracking configurations (-eta,
// or -c neither a multiple of -m nor below it): the controller then
// can only shed.
//
// Observability: /metrics renders every series from the estimator's
// telemetry bundle (see rept.NewTelemetry) — ingest tallies, WAL
// positions, per-shard queue depth and throughput, and latency
// histograms for every pipeline stage (NDJSON parse, shard dispatch,
// batch apply, barrier, WAL append and fsync, view publish). Recording
// is zero-allocation, so instrumentation is always on. /debug/flight
// dumps the flight recorder: the last few thousand pipeline events with
// nanosecond timestamps, for postmortems where aggregated histograms
// are too coarse. -pprof-addr serves net/http/pprof on a separate
// listener (keep it off the public address); -access-log emits one
// structured JSON line per request on stderr, and requests slower than
// -slow-log (default 1s; 0 disables) are logged as warnings even
// without -access-log.
//
// The process drains in-flight edges and exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rept"
	"rept/internal/control"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reptserve:", err)
		os.Exit(1)
	}
}

// newEstimator builds the serving estimator: in-memory without a WAL
// directory, otherwise the durable estimator recovered from the log's own
// checkpoint and tail (the code path -wal-dir takes, shared with tests).
func newEstimator(cfg rept.ConcurrentConfig, walOpt rept.WALOptions) (*rept.Concurrent, error) {
	if walOpt.Dir == "" {
		return rept.NewConcurrent(cfg)
	}
	return rept.ResumeDurable(cfg, walOpt)
}

// newController builds the adaptive memory controller over est at
// budget bytes; est's views must be running. The caller owns the tick
// loop.
func newController(est *rept.Concurrent, budget int64) *control.Controller {
	return control.New(control.Config{
		Budget:      budget,
		MemTotal:    est.MemTotalBytes,
		Processed:   est.Processed,
		SampleShift: est.SampleShift,
		Downsample:  est.Downsample,
		ViewAge:     func() time.Duration { return est.View().Age() },
	})
}

// parseByteSize parses a human byte count for -mem-budget: a plain
// integer is bytes; K/M/G/T suffixes are binary multiples, with an
// optional "i" and/or "B" (64M == 64Mi == 64MiB == 64*2^20), case-
// insensitive.
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("empty size")
	}
	upper := strings.ToUpper(t)
	upper = strings.TrimSuffix(upper, "B")
	upper = strings.TrimSuffix(upper, "I")
	mult := int64(1)
	if n := len(upper); n > 0 {
		switch upper[n-1] {
		case 'K':
			mult = 1 << 10
		case 'M':
			mult = 1 << 20
		case 'G':
			mult = 1 << 30
		case 'T':
			mult = 1 << 40
		}
		if mult > 1 {
			upper = upper[:n-1]
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a byte size (want e.g. 67108864, 64M, 64MiB): %v", s, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("size must be positive (got %q)", s)
	}
	if v > (1<<63-1)/mult {
		return 0, fmt.Errorf("%q overflows", s)
	}
	return v * mult, nil
}

// parseWALSync maps the -wal-sync flag onto WALOptions.SyncInterval:
// "batch" (sync before acknowledging every ingest request) or a positive
// duration (group sync on that period; acknowledgments then promise only
// that the events are in the log buffer, with a loss window of at most
// the interval).
func parseWALSync(s string) (time.Duration, error) {
	if s == "batch" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("-wal-sync: %q is neither \"batch\" nor a duration: %w", s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("-wal-sync: duration must be positive (got %v); use \"batch\" for per-request sync", d)
	}
	return d, nil
}

// bootHandler answers the listener while the estimator is still booting
// (WAL recovery on a large log is the slow case): liveness succeeds
// immediately, readiness reports "not yet", and every other request gets
// a 503 — the socket is open, but nothing can reach a half-built
// estimator.
type bootHandler struct{}

func (bootHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		writeJSON(w, http.StatusOK, map[string]any{"status": "starting"})
	case "/readyz":
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
	default:
		writeError(w, http.StatusServiceUnavailable, "server is starting (estimator recovering)")
	}
}

// closeEstimator closes est and reports a write-ahead log that failed on
// the way. With -wal-sync <duration> a 200 acknowledges events on
// append, and the group commit inside Close is the only sync covering the
// last interval's events, so its failure must fail the process.
func closeEstimator(est *rept.Concurrent) error {
	est.Close()
	if st := est.WALStats(); st.Failed {
		return fmt.Errorf("write-ahead log failed: events appended to position %d, durable only to %d", st.AppendedPos, st.DurablePos)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("reptserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		m        = fs.Int("m", 10, "sampling denominator; p = 1/m")
		c        = fs.Int("c", 40, "total logical processors across shards")
		shards   = fs.Int("shards", 0, "engine shards (0 = auto)")
		seed     = fs.Int64("seed", 1, "random seed")
		local    = fs.Bool("local", false, "track local (per-node) estimates and degrees (enables /local, /topk, /cc, /query)")
		dynamic  = fs.Bool("dynamic", false, "accept edge deletions (op:\"del\" lines and DELETE /edges); estimates track the net live graph")
		eta      = fs.Bool("eta", false, "force η̂ tracking (variance for every config)")
		grace    = fs.Duration("grace", 10*time.Second, "shutdown grace period")
		interval = fs.Duration("view-interval", 200*time.Millisecond, "max time between query-view epochs")
		vedges   = fs.Uint64("view-edges", 0, "also republish the query view every N ingested edges (0 = off)")
		topk     = fs.Int("topk", 100, "precomputed heavy-hitter ranking size (caps /topk?k=)")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory; enables durable ingest with crash recovery")
		walSync  = fs.String("wal-sync", "batch", "WAL sync policy: \"batch\" (sync before every ingest ack) or a duration (group sync, bounded loss window)")
		walComp  = fs.Uint64("wal-compact-every", 500_000, "fold the WAL into an incremental checkpoint every N events (0 = never)")
		walSeg   = fs.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = 64MiB default)")
		pprofA   = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		accLog   = fs.Bool("access-log", false, "log every request as a structured JSON line on stderr")
		slowLog  = fs.Duration("slow-log", time.Second, "warn-log any request slower than this (0 = off)")
		memBud   = fs.String("mem-budget", "", "adaptive memory budget with optional byte suffix (e.g. 64MiB, 256M, 1G); enables the control plane: sampling downsample from 90% of the budget, 429 load shedding at it (empty = off)")
		memTick  = fs.Duration("mem-tick", time.Second, "memory controller evaluation period (one corrective action per tick)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var walOpt rept.WALOptions
	if *walDir != "" {
		sync, err := parseWALSync(*walSync)
		if err != nil {
			return err
		}
		walOpt = rept.WALOptions{
			Dir:          *walDir,
			SyncInterval: sync,
			SegmentBytes: *walSeg,
			CompactEvery: *walComp,
		}
	}

	// Listen before building the estimator: WAL recovery can take a while
	// on a big log, and an open socket lets liveness probes (and -addr :0
	// port discovery) work during it. Until the estimator is up the
	// listener answers through bootHandler — /healthz 200, /readyz 503,
	// everything else 503 — then the real API is swapped in atomically.
	// The "listening on" banner prints only after the swap, so anything
	// that waits for the banner (tests, scripts) sees a fully-ready
	// server, exactly as before.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.Handler]
	boot := http.Handler(bootHandler{})
	handler.Store(&boot)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	est, err := newEstimator(rept.ConcurrentConfig{
		M:            *m,
		C:            *c,
		Shards:       *shards,
		Seed:         *seed,
		TrackLocal:   *local,
		FullyDynamic: *dynamic,
		TrackEta:     *eta,
		// Degrees ride along with -local: clustering coefficients need
		// both, and the O(V + E) table is cheap next to the local
		// counters.
		TrackDegrees: *local,
		// The telemetry bundle wires stage-latency histograms, per-shard
		// series, and the flight recorder through the whole pipeline; the
		// server's /metrics and /debug/flight serve from it.
		Telemetry: rept.NewTelemetry(),
	}, walOpt)
	if err != nil {
		srv.Close()
		return err
	}

	if _, err := est.StartViews(rept.ViewConfig{Interval: *interval, EveryEdges: *vedges, TopK: *topk}); err != nil {
		srv.Close()
		est.Close()
		return err
	}
	api := NewServer(est)
	if *accLog || *slowLog > 0 {
		api.SetAccessLog(slog.New(slog.NewJSONHandler(os.Stderr, nil)), *accLog, *slowLog)
	}

	// Adaptive memory control plane (-mem-budget): an online controller
	// polls the estimator's byte ledger on -mem-tick and downsamples,
	// shedding ingest with 429 only when the hard budget is reached.
	var ctrl *control.Controller
	if *memBud != "" {
		budget, err := parseByteSize(*memBud)
		if err != nil {
			srv.Close()
			api.Stop()
			est.Close()
			return fmt.Errorf("-mem-budget: %w", err)
		}
		ctrl = newController(est, budget)
		api.SetController(ctrl)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *walDir != "" {
		fmt.Fprintf(os.Stderr, "reptserve: wal recovered to position %d (dir=%s sync=%s)\n",
			est.Position(), *walDir, *walSync)
	}

	var psrv *http.Server
	if *pprofA != "" {
		pln, err := net.Listen("tcp", *pprofA)
		if err != nil {
			srv.Close()
			api.Stop()
			est.Close()
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv = &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = psrv.Serve(pln) }()
		// Worded to NOT contain "listening on": scripts (and the crash-test
		// harness) find the API address by scanning for that phrase.
		fmt.Fprintf(os.Stderr, "reptserve: pprof at http://%s/debug/pprof/\n", pln.Addr())
	}

	// The controller ticks only while the live API serves; its Tick calls
	// back into the estimator, so every exit path stops it BEFORE est.Close.
	stopCtrl := func() {}
	if ctrl != nil {
		tick := *memTick
		if tick <= 0 {
			tick = time.Second
		}
		stopc := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-stopc:
					return
				case <-t.C:
					ctrl.Tick()
				}
			}
		}()
		stopCtrl = func() { close(stopc); <-done }
		fmt.Fprintf(os.Stderr, "reptserve: memory budget %s (tick %v)\n", *memBud, tick)
	}

	live := http.Handler(api)
	handler.Store(&live)
	fmt.Fprintf(os.Stderr, "reptserve: listening on %s (m=%d c=%d shards=%d local=%v dynamic=%v)\n",
		ln.Addr(), *m, *c, est.Shards(), *local, *dynamic)

	select {
	case err := <-errc:
		if psrv != nil {
			psrv.Close()
		}
		stopCtrl()
		api.Stop()
		est.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "reptserve: shutting down")
	stopCtrl()
	if psrv != nil {
		psrv.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	// Stop drains in-flight estimator calls; lingering handlers (when the
	// grace period expired with clients still streaming) answer 503 from
	// here on, so closing the estimator under them is safe.
	api.Stop()
	if err := closeEstimator(est); err != nil {
		return err
	}
	if shutdownErr != nil {
		if !errors.Is(shutdownErr, context.DeadlineExceeded) {
			return shutdownErr
		}
		fmt.Fprintln(os.Stderr, "reptserve: grace period expired with requests in flight")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
