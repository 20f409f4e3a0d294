// Command benchdiff compares two benchmark recordings produced by
// `go test -json -bench ...` and fails when a tracked benchmark's
// ns-per-op — or, when the recordings carry -benchmem columns, its
// bytes-per-op — regressed beyond a threshold. It is the CI guardrail that
// keeps the per-event ingest trajectory from silently rotting: the bench
// step records BENCH_<sha>.json into bench/ on every main push, and the
// gate compares each fresh run against the last committed recording.
//
// Usage:
//
//	benchdiff -old bench/BENCH_abc.json -new bench/BENCH_def.json \
//	    [-threshold 0.25] [-bench Name1,Name2,...]
//	benchdiff -latest bench/LATEST -new bench/BENCH_def.json
//	benchdiff -new bench/BENCH_def.json \
//	    -pair BenchmarkREPTPerEdgeInstrumented=BenchmarkConcurrentPerEdge \
//	    [-pair-threshold 0.05]
//
// -pair gates WITHIN one recording instead of across two: each A=B entry
// fails when A's ns/op exceeds B's by more than -pair-threshold. Both
// sides come from the same run on the same hardware, so the comparison
// is immune to the cross-hardware skips below — it is how CI bounds the
// overhead of always-on instrumentation (the instrumented ingest
// benchmark must stay within 5% of its uninstrumented twin). When both
// sides have the same number n ≥ 2 of runs, the ratio gated is the
// median of the n per-round ratios A_i/B_i, pairing runs in file order:
// recorded in alternating rounds, each ratio compares two runs made
// moments apart, so drift of the machine over the recording cancels
// instead of landing in the ratio. Otherwise it is A's median over B's,
// and the gate prints which rule it used. An entry
// may carry an explicit ratio cap as A=B@maxRatio — e.g.
// BenchmarkAddPerEvent=BenchmarkBatchIngestPerEvent@1.5 fails unless A
// stays within 1.5× of B — which overrides
// -pair-threshold for that entry. -pair composes with the baseline gate
// or runs alone with just -new.
//
// When the recordings carry B/op columns (run the benchmarks with
// -benchmem), both gate kinds also bound bytes-per-op: the baseline gate
// at the same relative -threshold and the pair gate at the same ratio
// cap, each with a 16-byte absolute slack so 0 B/op baselines stay
// enforceable without dividing by zero. A baseline recorded before
// -benchmem has no byte column; byte gating phases in with a note on its
// first -benchmem run, exactly like a benchmark with no baseline.
//
// With -latest, the baseline is resolved through a pointer file holding
// the committed baseline's file name (relative to the pointer's
// directory). A missing pointer file is a clean skip — the trajectory
// has to start somewhere — but a pointer that names a missing file is a
// hard error: the trajectory record is broken and silently skipping the
// gate would let regressions through unnoticed.
//
// A benchmark listed in -bench but missing from the old file is skipped
// with a note (the trajectory starts somewhere); missing from the new
// file is an error (the suite lost a tracked benchmark). Likewise, ANY
// benchmark recorded in the baseline but absent from the fresh run is a
// hard error — a renamed benchmark would otherwise drop out of the gate
// silently, with the old name skipped as "no baseline" forever.
//
// A benchmark usually appears several times in one file: the CI gate
// records it with -count=5, and the -benchtime=1x sweep adds a
// one-iteration entry. Both gate kinds compare medians: the 1-iteration
// entries are dropped whenever longer runs of the same benchmark exist,
// and ns/op and B/op are the medians of the runs that remain, on both
// sides. Each run's GOMAXPROCS is read from its -N name suffix (none
// means 1); a benchmark recorded at different GOMAXPROCS in the two files
// is not compared, with a note, since its ns/op measures a different
// machine shape.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// defaultBenchmarks are the datapoints gated by default: the insert-only,
// fully-dynamic, and durable (write-ahead-logged) per-event ingest costs,
// the cost of publishing one epoch view on a quiescent estimator and of
// one that carries an interval's updates, one engine at the e2e shard
// shape, and one WAL compaction of a churn sample. A benchmark missing
// from the old baseline is skipped with a note, so newly added
// datapoints phase in on their first run.
const defaultBenchmarks = "BenchmarkREPTPerEdge,BenchmarkFullyDynamicChurnPerEvent,BenchmarkREPTPerEdgeWAL,BenchmarkBatchIngestPerEvent,BenchmarkViewPublishIdle,BenchmarkViewPublishEpoch,BenchmarkEngineShardPowerLaw,BenchmarkCompactWALChurn"

// result is one benchmark's summary in a recording: the medians of its
// runs (see summarize), or one parsed line.
type result struct {
	iters int64 // most iterations of any summarized run
	runs  int   // runs the medians are taken over
	procs int   // GOMAXPROCS, from the -N name suffix
	nsOp  float64
	ns    []float64 // ns/op of each of those runs, in file order
	// bOp is the -benchmem bytes-per-operation column; hasB records
	// whether the runs carried one (older recordings predate -benchmem,
	// and their byte gates phase in rather than fail).
	bOp  float64
	hasB bool
}

// recording is one parsed BENCH file: the summary per benchmark plus the
// CPU model the run happened on.
type recording struct {
	results map[string]result
	cpu     string
}

// testEvent is the go test -json envelope (only the fields we need).
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches "BenchmarkName-8   12345   678.9 ns/op ..." (the -N
// GOMAXPROCS suffix is absent at GOMAXPROCS=1).
var benchLine = regexp.MustCompile(`^(Benchmark[^\s-]+)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op`)

// bytesColumn matches the B/op column, which appears only under -benchmem
// and follows any custom metrics a benchmark reports ("806 ns/event").
var bytesColumn = regexp.MustCompile(`\s([0-9.]+) B/op`)

// bytesSlack is the absolute bytes-per-event allowance on top of every
// relative B/op gate. Per-event allocation costs are near-integer and
// often exactly 0, where a pure ratio is undefined (0/0) and a single
// stray cache-line-sized allocation would be an infinite regression; the
// slack turns "must not grow by more than X%" into "…and never minds
// noise smaller than one allocator size class".
const bytesSlack = 16

// parseFile summarizes every benchmark of a go test -json stream (see
// summarize) and reads the "cpu:" banner. One benchmark's report is split
// across several output events (the name and the numbers arrive
// separately), so the stream is first reassembled into plain text per
// package and then scanned line-wise. Plain benchmark text (no JSON
// envelope) is accepted too, so locally produced files work either way.
func parseFile(path string) (recording, error) {
	rec := recording{results: make(map[string]result)}
	f, err := os.Open(path)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	texts := make(map[string]*strings.Builder) // package → reassembled output
	text := func(pkg string) *strings.Builder {
		b := texts[pkg]
		if b == nil {
			b = &strings.Builder{}
			texts[pkg] = b
		}
		return b
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					text(ev.Package).WriteString(ev.Output)
				}
				continue
			}
			// Not a test event: fall through as plain text.
		}
		text("").WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	pkgs := make([]string, 0, len(texts))
	for pkg := range texts {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs) // deterministic cpu-banner pick across buckets
	runs := make(map[string][]result)
	for _, pkg := range pkgs {
		for _, line := range strings.Split(texts[pkg].String(), "\n") {
			line = strings.TrimSpace(line)
			if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
				if rec.cpu == "" {
					rec.cpu = strings.TrimSpace(cpu)
				}
				continue
			}
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			iters, err1 := strconv.ParseInt(m[3], 10, 64)
			nsOp, err2 := strconv.ParseFloat(m[4], 64)
			if err1 != nil || err2 != nil {
				continue
			}
			r := result{iters: iters, runs: 1, procs: 1, nsOp: nsOp}
			if m[2] != "" {
				if p, err := strconv.Atoi(m[2]); err == nil {
					r.procs = p
				}
			}
			if b := bytesColumn.FindStringSubmatch(line); b != nil {
				if bOp, err := strconv.ParseFloat(b[1], 64); err == nil {
					r.bOp, r.hasB = bOp, true
				}
			}
			runs[m[1]] = append(runs[m[1]], r)
		}
	}
	for name, rs := range runs {
		r, err := summarize(rs)
		if err != nil {
			return rec, fmt.Errorf("%s: %s: %w", path, name, err)
		}
		rec.results[name] = r
	}
	return rec, nil
}

// summarize reduces one benchmark's runs to the result the gates compare:
// 1-iteration entries (a -benchtime=1x sweep) are dropped when longer
// runs exist, and ns/op and B/op are the medians of the rest. Runs at
// different GOMAXPROCS are not one sample and are rejected.
func summarize(rs []result) (result, error) {
	long := rs[:0:0]
	for _, r := range rs {
		if r.iters > 1 {
			long = append(long, r)
		}
	}
	if len(long) > 0 {
		rs = long
	}
	out := result{runs: len(rs), procs: rs[0].procs}
	var ns, bs []float64
	for _, r := range rs {
		if r.procs != out.procs {
			return out, fmt.Errorf("runs at GOMAXPROCS %d and %d", out.procs, r.procs)
		}
		out.iters = max(out.iters, r.iters)
		ns = append(ns, r.nsOp)
		if r.hasB {
			bs = append(bs, r.bOp)
		}
	}
	out.ns = ns
	out.nsOp = median(slices.Clone(ns))
	if len(bs) > 0 {
		out.bOp, out.hasB = median(bs), true
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// resolveLatest turns a LATEST pointer file into the baseline path it
// names. Returns "" (skip, no error) when the pointer itself does not
// exist yet; returns an error when the pointer exists but is empty or
// names a file that is gone — a broken trajectory record must fail the
// gate loudly, not skip it.
func resolveLatest(pointer string) (string, error) {
	raw, err := os.ReadFile(pointer)
	if os.IsNotExist(err) {
		fmt.Printf("no baseline pointer %s yet; the trajectory starts with this run\n", pointer)
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("reading baseline pointer: %w", err)
	}
	name := strings.TrimSpace(string(raw))
	if name == "" {
		return "", fmt.Errorf("baseline pointer %s is empty; re-record the baseline or delete the pointer", pointer)
	}
	target := filepath.Join(filepath.Dir(pointer), name)
	if _, err := os.Stat(target); err != nil {
		return "", fmt.Errorf("baseline pointer %s names %s, which is missing: the bench trajectory record is broken; restore the baseline file or re-point %s", pointer, target, pointer)
	}
	return target, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	oldPath := fs.String("old", "", "baseline BENCH json file")
	latest := fs.String("latest", "", "baseline pointer file (e.g. bench/LATEST) naming the baseline; missing pointer skips, missing target fails")
	newPath := fs.String("new", "", "fresh BENCH json file")
	threshold := fs.Float64("threshold", 0.25, "fail when new ns/op exceeds old by more than this fraction")
	benches := fs.String("bench", defaultBenchmarks, "comma-separated benchmark names to gate")
	pairs := fs.String("pair", "", "comma-separated A=B within-run gates on -new: fail when A's ns/op exceeds B's by more than -pair-threshold")
	pairThreshold := fs.Float64("pair-threshold", 0.05, "fail a -pair when A exceeds B by more than this fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath != "" && *latest != "" {
		return fmt.Errorf("-old and -latest are mutually exclusive")
	}
	if *newPath == "" {
		return fmt.Errorf("-new is required")
	}
	newRec, err := parseFile(*newPath)
	if err != nil {
		return fmt.Errorf("reading fresh run: %w", err)
	}
	// Within-run pair gates run first: they need only -new and must not be
	// skipped by the baseline-resolution early returns below.
	if err := checkPairs(newRec.results, *pairs, *pairThreshold, *newPath); err != nil {
		return err
	}
	if *oldPath == "" && *latest == "" {
		if *pairs != "" {
			return nil // pair-only invocation
		}
		return fmt.Errorf("both -old (or -latest) and -new are required")
	}
	if *latest != "" {
		target, err := resolveLatest(*latest)
		if err != nil {
			return err
		}
		if target == "" {
			return nil
		}
		if filepath.Clean(target) == filepath.Clean(*newPath) {
			fmt.Println("fresh run is the committed baseline; nothing to compare")
			return nil
		}
		*oldPath = target
	}
	oldRec, err := parseFile(*oldPath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	oldRes, newRes := oldRec.results, newRec.results
	if oldRec.cpu != newRec.cpu {
		// ns/op across different hardware is noise, not signal: the gate
		// compares like for like only. The trajectory keeps recording, and
		// the next same-hardware baseline re-arms the comparison.
		fmt.Printf("baseline cpu %q != fresh cpu %q; skipping cross-hardware comparison\n", oldRec.cpu, newRec.cpu)
		return nil
	}
	var failures []string
	for _, name := range strings.Split(*benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		nw, ok := newRes[name]
		if !ok {
			return fmt.Errorf("benchmark %s missing from %s (tracked benchmark dropped?)", name, *newPath)
		}
		old, ok := oldRes[name]
		if !ok {
			fmt.Printf("%-40s %12.1f ns/op (no baseline; trajectory starts here)\n", name, nw.nsOp)
			continue
		}
		if old.procs != nw.procs {
			fmt.Printf("%-40s baseline at GOMAXPROCS %d, fresh at %d; refusing to compare\n", name, old.procs, nw.procs)
			continue
		}
		ratio := nw.nsOp / old.nsOp
		fmt.Printf("%-40s %12.1f -> %9.1f ns/op (%+.1f%%; medians of %d and %d runs)\n", name, old.nsOp, nw.nsOp, (ratio-1)*100, old.runs, nw.runs)
		if ratio > 1+*threshold {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (threshold %.0f%%)", name, (ratio-1)*100, *threshold*100))
		}
		// Bytes-per-event rides the same gate once both sides record it:
		// the relative threshold plus an absolute one-size-class slack, so
		// a 0 B/op baseline stays enforceable without a division by zero.
		switch {
		case !nw.hasB:
			// Fresh run without -benchmem: nothing to gate.
		case !old.hasB:
			fmt.Printf("%-40s %25.0f B/op (no byte baseline; trajectory starts here)\n", name, nw.bOp)
		default:
			fmt.Printf("%-40s %12.0f -> %9.0f B/op\n", name, old.bOp, nw.bOp)
			if nw.bOp > old.bOp*(1+*threshold)+bytesSlack {
				failures = append(failures, fmt.Sprintf("%s bytes/event regressed %.0f -> %.0f B/op (threshold %.0f%% + %dB)", name, old.bOp, nw.bOp, *threshold*100, bytesSlack))
			}
		}
	}
	// Every benchmark the baseline recorded must appear in the fresh run:
	// a silent disappearance is how a renamed benchmark drops out of the
	// gate (the new name starts a fresh trajectory, the old name is never
	// compared again).
	var missing []string
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("baseline benchmark(s) missing from %s: %s — if renamed, gate the new name AND re-record the baseline (the rename otherwise silently drops the trajectory); if deleted on purpose, re-record the baseline without it", *newPath, strings.Join(missing, ", "))
	}
	if len(failures) > 0 {
		return fmt.Errorf("per-event ingest regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// checkPairs evaluates the -pair A=B[@maxRatio] gates against one
// recording: both sides must be present (a dropped benchmark fails
// loudly, like a dropped -bench entry), and A may not exceed B by more
// than threshold — or, with an explicit @maxRatio suffix, A/B may not
// exceed that absolute ratio (e.g. @0.5 demands A at least 2× faster).
func checkPairs(res map[string]result, pairs string, threshold float64, path string) error {
	if pairs == "" {
		return nil
	}
	var failures []string
	for _, p := range strings.Split(pairs, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		a, b, ok := strings.Cut(p, "=")
		a, b = strings.TrimSpace(a), strings.TrimSpace(b)
		if !ok || a == "" || b == "" {
			return fmt.Errorf("-pair entry %q is not of the form A=B[@maxRatio]", p)
		}
		maxRatio := 1 + threshold
		if b2, capStr, found := strings.Cut(b, "@"); found {
			b = strings.TrimSpace(b2)
			r, err := strconv.ParseFloat(strings.TrimSpace(capStr), 64)
			if err != nil || r <= 0 || b == "" {
				return fmt.Errorf("-pair entry %q: ratio cap %q is not a positive number", p, capStr)
			}
			maxRatio = r
		}
		ra, okA := res[a]
		rb, okB := res[b]
		if !okA || !okB {
			return fmt.Errorf("-pair %s: %s present=%v, %s present=%v in %s (tracked benchmark dropped?)", p, a, okA, b, okB, path)
		}
		if ra.procs != rb.procs {
			return fmt.Errorf("-pair %s: %s ran at GOMAXPROCS %d, %s at %d in %s; refusing to compare", p, a, ra.procs, b, rb.procs, path)
		}
		ratio, rule := pairRatio(ra, rb)
		fmt.Printf("%-40s %12.1f ns/op vs %s %.1f ns/op (%s: ratio %.2f, max %.2f)\n", a, ra.nsOp, b, rb.nsOp, rule, ratio, maxRatio)
		if ratio > maxRatio {
			failures = append(failures, fmt.Sprintf("%s is %.2f× %s, exceeding the %.2f× cap", a, ratio, b, maxRatio))
		}
		// The byte columns pair-gate under the same cap (plus the absolute
		// slack) when both sides recorded them — for the accounted-vs-
		// unaccounted ingest pair both sides must be 0 B/op in steady
		// state, and this is the gate that notices when one stops being so.
		if ra.hasB && rb.hasB && ra.bOp > rb.bOp*maxRatio+bytesSlack {
			failures = append(failures, fmt.Sprintf("%s allocates %.0f B/op vs %s at %.0f B/op (cap %.2f× + %dB)", a, ra.bOp, b, rb.bOp, maxRatio, bytesSlack))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("within-run pair regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// pairRatio returns the ns/op ratio a pair gate compares with its cap,
// and the rule that produced it: the median of the per-round ratios when
// both sides ran the same n ≥ 2 times, else median over median.
func pairRatio(a, b result) (float64, string) {
	n := len(a.ns)
	if n < 2 || n != len(b.ns) {
		return a.nsOp / b.nsOp, "median over median"
	}
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = a.ns[i] / b.ns[i]
	}
	return median(rs), fmt.Sprintf("median of %d per-round ratios", n)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
