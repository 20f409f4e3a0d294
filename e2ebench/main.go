// Command e2ebench is the repository's end-to-end benchmark. It boots
// reptserve on loopback (run.sh builds both from the working tree), drives
// one seeded workload over HTTP from at most two connections, checks the
// answers, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":1.5,"unit":"ms"},...}}
//
// With -trace 0 its metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones: the /metrics delta of the
// same untraced run plus an in-process replay of its requests through each
// layer's Go API, with spans around every call. The line before it starts
// with "result " and holds every measured metric with the run fingerprint;
// -compare reads two saved outputs and refuses to compare runs made on
// different core counts. A failed correctness check exits 1 after printing.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload ingest-powerlaw --seed 1 --seconds 15 --trace 0
//	bash e2ebench/run.sh -compare old.txt new.txt
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupBoots is how many cold boots a run times; setup_s is their median
// and the last boot serves the window. A boot takes a few milliseconds, so
// many of them cost little and steady the median.
const setupBoots = 11

const mib = 1 << 20

// metricDef is one reported figure. Layer metrics come from the /metrics
// delta of the untraced run ([m]) or from the traced replay ([t]).
type metricDef struct {
	name, unit string
	layer      bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", false},
	{"ingest_eps", "1/s", false},
	{"cpu_us_per_event", "us", false},
	{"rss_mib", "MiB", false},

	// Request latencies and staleness are printed beside the layer figures,
	// without a bound: the server keeps both cores of the 2-core machine the
	// benchmark was tuned on busy enough that a request's latency is mostly
	// its wait for a core, and their run-to-run spread (interquartile range
	// 0.15 to 0.9 of the median over five to ten seeds) is wider than any
	// bound a regression gate could use.
	{"staleness_p50_ms", "ms", true},
	{"ack_p50_ms", "ms", true},
	{"ack_p99_ms", "ms", true},
	{"query_p50_ms", "ms", true},
	{"query_p99_ms", "ms", true},
	// The peak is set by where the last GC cycles fall (its spread on
	// durable-churn, whose live heap is small, was 0.09 of the median), so
	// the gated memory figure is the window's median resident set.
	{"peak_rss_mib", "MiB", true},
	{"reptserve.parse_ns_per_event", "ns", true},
	{"reptserve.requests", "count", true},
	{"rept.apply_batch_ns_per_event", "ns", true},
	{"shard.dispatch_ns_per_event", "ns", true},
	{"shard.queue_wait_ns_per_event", "ns", true},
	{"shard.events_per_ticket", "count", true},
	{"shard.barrier_ms", "ms", true},
	{"shard.barriers", "count", true},
	{"core.apply_busy_frac", "fraction", true},
	{"core.apply_ns_per_event", "ns", true},
	{"core.replica_apply_ns_per_event", "ns", true},
	{"core.insert_ns", "ns", true},
	{"core.delete_ns", "ns", true},
	{"core.sampled_edges", "count", true},
	{"graph.common_count_ns", "ns", true},
	{"graph.adjacency_add_ns", "ns", true},
	{"graph.mask_get_ns", "ns", true},
	{"graph.degree_add_ns", "ns", true},
	{"wal.append_ns_per_event", "ns", true},
	{"wal.fsync_ms", "ms", true},
	{"wal.fsyncs", "count", true},
	{"wal.events_per_fsync", "count", true},
	{"wal.checkpoint_events", "count", true},
	{"wal.bytes_per_event", "bytes", true},
	{"wal.compact_ms", "ms", true},
	{"snapshot.encode_ms", "ms", true},
	{"snapshot.bytes", "bytes", true},
	{"query.publish_ms", "ms", true},
	{"query.publish_busy_frac", "fraction", true},
	{"query.epochs", "count", true},
	{"mem.heap_mib", "MiB", true},
	{"mem.adjacency_mib", "MiB", true},
	{"mem.counters_mib", "MiB", true},
	{"mem.degrees_mib", "MiB", true},
	{"mem.masks_mib", "MiB", true},
	{"mem.rings_mib", "MiB", true},
	{"mem.batches_mib", "MiB", true},
	{"mem.views_mib", "MiB", true},
	{"mem.wal_buffers_mib", "MiB", true},
	{"obs.gc_cycles", "count", true},
	{"obs.gc_pause_ms", "ms", true},
	{"bench.gen_late_p99_ms", "ms", true},
	{"bench.client_cpu_s", "s", true},
	{"bench.server_cpu_s", "s", true},
	{"bench.server_sys_cpu_s", "s", true},
	{"bench.trace_overhead_frac", "fraction", true},
	{"bench.error_rate", "fraction", true},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	workdir  string
	root     string
}

// fingerprint identifies where and on what a result was measured.
type fingerprint struct {
	NProc            int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	Commit           string `json:"commit"`
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Seconds          int    `json:"seconds"`
	Trace            bool   `json:"trace"`
}

// record is the "result " line: every measured metric of one run.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checks      []check            `json:"checks"`
	Metrics     map[string]float64 `json:"metrics"`
}

// errIncorrect reports a run whose answers failed a check; its result has
// been printed.
var errIncorrect = errors.New("correctness check failed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	flags.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flags.Int64Var(&o.seed, "seed", 1, "workload seed")
	flags.IntVar(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	traceN := flags.Int("trace", 0, "0: print end-to-end metrics; 1: print per-layer metrics (adds the traced replay)")
	flags.StringVar(&o.server, "server", "", "reptserve binary")
	flags.StringVar(&o.workdir, "workdir", "", "directory for WAL directories, server logs and span files")
	flags.StringVar(&o.root, "root", "", "repository root, hashed into the run fingerprint")
	compare := flags.Bool("compare", false, "compare the result lines of two saved outputs: -compare old new")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *compare {
		if flags.NArg() != 2 {
			return errors.New("-compare needs two saved outputs")
		}
		return compareRuns(flags.Arg(0), flags.Arg(1), os.Stdout)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	w.name = o.workload
	if o.server == "" || o.workdir == "" || o.seconds < 1 || (*traceN != 0 && *traceN != 1) {
		return errors.New("need -server, -workdir, -seconds >= 1 and -trace 0 or 1")
	}
	o.trace = *traceN == 1
	rec, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	return report(rec, o.trace, os.Stdout)
}

// runWorkload makes one run: set-up boots, the timed window, the checks,
// and with -trace 1 the replays.
func runWorkload(w *workload, o options) (*record, error) {
	commit, err := sourceHash(o.root)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Fingerprint: fingerprint{
			NProc: runtime.NumCPU(), ClientGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: serverProcs,
			GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: commit,
			Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		},
		Metrics: make(map[string]float64),
	}
	v := rec.Metrics
	subs := w.streams(o.seed)

	var srv *server
	defer func() {
		if srv != nil {
			_ = srv.stop()
		}
	}()
	// The stream generators leave garbage behind; collecting it now keeps
	// the client's GC from competing with the boots and the window.
	runtime.GC()
	var setups []float64
	for i := 0; i < setupBoots; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = startServer(o, w); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	v["setup_s"], _ = percentile(setups, 0.5)

	conns := [2]*conn{newConn(srv.base), newConn(srv.base)}
	harness := newConn(srv.base)
	defer conns[0].close()
	defer conns[1].close()
	defer harness.close()

	all := &tally{}
	pre := preload(conns, subs, w.preload)
	all.add(pre)
	if pre.err != nil {
		return nil, fmt.Errorf("preload: %w", pre.err)
	}

	runtime.GC()
	before, err := srv.scrape(harness)
	if err != nil {
		return nil, err
	}
	user0, sys0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	client0 := selfCPU()
	stopRSS := make(chan struct{})
	rssc := srv.sampleRSS(stopRSS)
	win, t0 := w.window(conns, subs, o.seconds, o.seed)
	close(stopRSS)
	rssSamples := <-rssc
	client1 := selfCPU()
	user1, sys1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(harness)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	var stats struct {
		SampledEdges int `json:"sampledEdges"`
	}
	if err := harness.do("GET", "/stats", nil, &stats); err != nil {
		return nil, err
	}
	var final struct {
		Global    float64 `json:"global"`
		Processed uint64  `json:"processed"`
	}
	if err := harness.do("GET", "/estimate?fresh=1", nil, &final); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	all.add(win)
	rec.Attempted, rec.Failed = all.attempted, all.failed
	if win.err != nil {
		fmt.Printf("first failure: %v\n", win.err)
	}

	var acked [2]int
	preAcked := pre.acked
	for i := range acked {
		acked[i] = preAcked[i] + win.acked[i]
		if acked[i] == len(subs[i]) {
			fmt.Printf("substream %d ran out before the window ended\n", i)
		}
	}
	if rec.Checks, err = checkAnswers(w, subs, acked, final.Global, final.Processed, all.accepted); err != nil {
		return nil, err
	}

	// The server's own request counters must agree with the client's
	// attempt count (the harness's scrape and its /metrics are excluded).
	served := delta(before, after, "rept_http_requests_total") -
		(series(after, "rept_http_requests_total", "endpoint", "/metrics") - series(before, "rept_http_requests_total", "endpoint", "/metrics"))
	rec.Checks = append(rec.Checks, check{
		Name:   "requests",
		OK:     int(served) == win.attempted,
		Detail: fmt.Sprintf("server counted %d requests in the window, client attempted %d", int(served), win.attempted),
	})

	events := float64(win.acked[0] + win.acked[1])
	secs := win.end.Sub(t0).Seconds()
	if events == 0 || secs <= 0 {
		return nil, fmt.Errorf("no events acknowledged in the window (first failure: %v)", win.err)
	}
	// Medians are taken per part of the window and their median reported;
	// tail percentiles need the whole window's samples.
	if v["ack_p50_ms"], err = windowed("ack_p50_ms", win.ackMs, win.ackAt, t0, win.end, 0.5); err != nil {
		return nil, err
	}
	if v["query_p50_ms"], err = windowed("query_p50_ms", win.queryMs, win.queryAt, t0, win.end, 0.5); err != nil {
		return nil, err
	}
	if v["staleness_p50_ms"], err = windowed("staleness_p50_ms", win.staleMs, win.queryAt, t0, win.end, 0.5); err != nil {
		return nil, err
	}
	if v["ack_p99_ms"], err = quantile("ack_p99_ms", win.ackMs, 0.99); err != nil {
		return nil, err
	}
	if v["query_p99_ms"], err = quantile("query_p99_ms", win.queryMs, 0.99); err != nil {
		return nil, err
	}
	fmt.Printf("window %.3fs: %d ingest bodies, %d queries\n", secs, len(win.ackMs), len(win.queryMs))
	v["ingest_eps"] = events / secs
	// User time only: the kernel time of durable-churn follows the shared
	// disk's fsync latency (its user+system CPU per event moved 32% with
	// it between runs), and is reported per layer instead.
	v["cpu_us_per_event"] = (user1 - user0).Seconds() * 1e6 / events
	v["peak_rss_mib"] = rss / mib
	if len(rssSamples) == 0 {
		return nil, fmt.Errorf("no resident-set samples of the server")
	}
	v["rss_mib"], _ = percentile(rssSamples, 0.5)
	v["rss_mib"] /= mib

	d := func(name string) float64 { return delta(before, after, name) }
	v["reptserve.parse_ns_per_event"] = d("rept_stage_parse_seconds_sum") * 1e9 / events
	v["reptserve.requests"] = served
	v["shard.dispatch_ns_per_event"] = d("rept_stage_dispatch_seconds_sum") * 1e9 / events
	v["shard.queue_wait_ns_per_event"] = d("rept_stage_queue_wait_seconds_sum") * 1e9 / events
	v["shard.events_per_ticket"] = ratio(d("rept_batch_events_sum"), d("rept_batch_events_count"))
	v["shard.barrier_ms"] = ratio(d("rept_stage_barrier_seconds_sum")*1e3, d("rept_stage_barrier_seconds_count"))
	v["shard.barriers"] = d("rept_stage_barrier_seconds_count")
	v["core.apply_busy_frac"] = ratio(d("rept_stage_apply_seconds_sum"), secs*series(after, "rept_shards", "", ""))
	v["core.apply_ns_per_event"] = d("rept_stage_apply_seconds_sum") * 1e9 / events
	v["core.sampled_edges"] = float64(stats.SampledEdges)
	v["wal.append_ns_per_event"] = d("rept_stage_wal_append_seconds_sum") * 1e9 / events
	v["wal.fsyncs"] = d("rept_stage_wal_fsync_seconds_count")
	v["wal.fsync_ms"] = ratio(d("rept_stage_wal_fsync_seconds_sum")*1e3, v["wal.fsyncs"])
	v["wal.events_per_fsync"] = ratio(events, v["wal.fsyncs"])
	v["wal.checkpoint_events"] = d("rept_wal_checkpoint_events_total")
	v["query.publish_ms"] = ratio(d("rept_stage_view_publish_seconds_sum")*1e3, d("rept_stage_view_publish_seconds_count"))
	v["query.publish_busy_frac"] = d("rept_stage_view_publish_seconds_sum") / secs
	v["query.epochs"] = d("rept_view_epoch")
	v["mem.heap_mib"] = series(after, "rept_mem_heap_bytes", "", "") / mib
	for _, c := range []string{"adjacency", "counters", "degrees", "masks", "rings", "batches", "views", "wal_buffers"} {
		v["mem."+c+"_mib"] = series(after, "rept_mem_bytes", "component", c) / mib
	}
	v["obs.gc_cycles"] = d("rept_go_gc_cycles_total")
	v["obs.gc_pause_ms"] = d("rept_go_gc_pause_seconds_total") * 1e3
	v["bench.gen_late_p99_ms"], _ = percentile(win.lateMs, 0.99)
	v["bench.client_cpu_s"] = client1 - client0
	v["bench.server_cpu_s"] = (user1 - user0 + sys1 - sys0).Seconds()
	v["bench.server_sys_cpu_s"] = (sys1 - sys0).Seconds()
	v["bench.error_rate"] = float64(all.failed) / float64(all.attempted)

	if o.trace {
		reqs := interleave(chunk(subs[0][:preAcked[0]], preloadBody), chunk(subs[1][:preAcked[1]], preloadBody))
		reqs = append(reqs, interleave(
			chunk(subs[0][preAcked[0]:acked[0]], w.body),
			chunk(subs[1][preAcked[1]:acked[1]], w.body))...)
		if err := traceMetrics(w, reqs, v["ingest_eps"], o, v); err != nil {
			return nil, err
		}
	}
	if self, err := procBytes("self", "VmHWM"); err == nil {
		fmt.Printf("benchmark client peak RSS %.0f MiB\n", self/mib)
	}
	return rec, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metric table, the checks, the result line and, last,
// the JSON line with the end-to-end (trace false) or per-layer metrics.
func report(rec *record, trace bool, out io.Writer) error {
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range metricDefs {
		x, ok := rec.Metrics[d.name]
		if ok {
			fmt.Fprintf(out, "%-34s %18.6f %s\n", d.name, x, d.unit)
		}
		if d.layer != trace {
			continue
		}
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) || !metricName.MatchString(d.name) {
			return fmt.Errorf("metric %s: not measured or not a finite number (%v)", d.name, x)
		}
		final.Metrics[d.name] = metricValue{x, d.unit}
	}
	for _, c := range rec.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
			final.Correct = false
		}
		fmt.Fprintf(out, "check %-10s %-6s %s\n", c.Name, verdict, c.Detail)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "result %s\n", line)
	if line, err = json.Marshal(final); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !final.Correct {
		return errIncorrect
	}
	return nil
}

// compareRuns prints how every metric moved between two saved outputs. It
// refuses results measured on different core counts or workloads.
func compareRuns(oldPath, newPath string, out io.Writer) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	if fa.NProc != fb.NProc || fa.ClientGOMAXPROCS != fb.ClientGOMAXPROCS || fa.ServerGOMAXPROCS != fb.ServerGOMAXPROCS {
		return fmt.Errorf("refusing to compare runs on different core counts: nproc %d vs %d, GOMAXPROCS client %d vs %d, server %d vs %d",
			fa.NProc, fb.NProc, fa.ClientGOMAXPROCS, fb.ClientGOMAXPROCS, fa.ServerGOMAXPROCS, fb.ServerGOMAXPROCS)
	}
	if fa.Workload != fb.Workload {
		return fmt.Errorf("refusing to compare workload %s with %s", fa.Workload, fb.Workload)
	}
	fmt.Fprintf(out, "%s: %s (seed %d) -> %s (seed %d)\n", fa.Workload, fa.Commit, fa.Seed, fb.Commit, fb.Seed)
	for _, d := range metricDefs {
		x, okA := a.Metrics[d.name]
		y, okB := b.Metrics[d.name]
		if !okA || !okB {
			continue
		}
		change := "n/a"
		if x != 0 {
			change = fmt.Sprintf("%+.1f%%", (y-x)/x*100)
		}
		fmt.Fprintf(out, "%-34s %16.6g %16.6g %9s %s\n", d.name, x, y, change, d.unit)
	}
	return nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "result "); ok {
			var r record
			if err := json.Unmarshal([]byte(rest), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return &r, nil
		}
	}
	return nil, fmt.Errorf("%s: no result line", path)
}

// sourceHash names the code under test. The checkout the benchmark runs in
// is not a git repository, so the commit is a hash of the Go sources and
// go.mod files under root.
func sourceHash(root string) (string, error) {
	if root == "" {
		return "unknown", nil
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6]), nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// selfCPU is this process's user plus system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
