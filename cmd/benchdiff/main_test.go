package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// jsonBench wraps benchmark output lines in the go test -json envelope.
func jsonBench(lines ...string) string {
	var b strings.Builder
	b.WriteString(`{"Action":"start","Package":"rept"}` + "\n")
	for _, l := range lines {
		b.WriteString(`{"Action":"output","Package":"rept","Output":"` + l + `\n"}` + "\n")
	}
	return b.String()
}

func TestParseFilePicksHighestIterationRun(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "b.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1 \\t 99999 ns/op",       // the 1x sweep: noise
		"BenchmarkREPTPerEdge-8 \\t 2000000 \\t 700.5 ns/op", // the real run
		"BenchmarkOther-8 \\t 10 \\t 5 ns/op",
	))
	rec, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rec.results["BenchmarkREPTPerEdge"]
	if !ok || r.nsOp != 700.5 || r.iters != 2000000 {
		t.Fatalf("parsed %+v, want the 2M-iteration run at 700.5 ns/op", r)
	}
}

// TestParseFileSplitOutputEvents: go test -json splits one benchmark
// report across several output events (the name, then the numbers);
// parsing must reassemble them.
func TestParseFileSplitOutputEvents(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "b.json",
		`{"Action":"output","Package":"rept","Output":"cpu: Fake CPU\n"}`+"\n"+
			`{"Action":"output","Package":"rept","Output":"BenchmarkREPTPerEdge\n"}`+"\n"+
			`{"Action":"output","Package":"rept","Output":"BenchmarkREPTPerEdge               \t"}`+"\n"+
			`{"Action":"output","Package":"rept","Output":" 3691238\t       692.7 ns/op\n"}`+"\n"+
			`{"Action":"pass","Package":"rept"}`+"\n")
	rec, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := rec.results["BenchmarkREPTPerEdge"]
	if !ok || r.nsOp != 692.7 || r.iters != 3691238 {
		t.Fatalf("parsed %+v, want 3691238 iterations at 692.7 ns/op", r)
	}
	if rec.cpu != "Fake CPU" {
		t.Fatalf("cpu = %q", rec.cpu)
	}
}

func TestParseFilePlainText(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "b.txt",
		"goos: linux\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\nBenchmarkFullyDynamicChurnPerEvent \t 5000000 \t 450.0 ns/op \t 0 B/op\nPASS\n")
	rec, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := rec.results["BenchmarkFullyDynamicChurnPerEvent"]; r.nsOp != 450.0 {
		t.Fatalf("parsed %+v, want 450.0 ns/op", r)
	}
	if rec.cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", rec.cpu)
	}
}

// TestRunSkipsCrossHardware: a regression measured on different hardware
// is noise; the gate must pass with a note instead of failing.
func TestRunSkipsCrossHardware(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"cpu: CPU Model A",
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 100 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"cpu: CPU Model B",
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 9999 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 9999 ns/op",
	))
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("cross-hardware comparison failed instead of skipping: %v", err)
	}
}

func TestRunPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 180 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1200 ns/op", // +20% < 25%
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 500 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1600 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 190 ns/op",
	))
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run failed within threshold: %v", err)
	}
}

func TestRunFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 180 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1300 ns/op", // +30% > 25%
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 180 ns/op",
	))
	err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkREPTPerEdge regressed") {
		t.Errorf("run = %v, want a regression failure naming BenchmarkREPTPerEdge", err)
	}
}

func TestRunMissingTrackedBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkOther-8 \\t 1000000 \\t 1000 ns/op",
	))
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err == nil {
		t.Error("run succeeded with a tracked benchmark missing from the fresh file")
	}
	// A benchmark absent from the BASELINE is fine: the trajectory has to
	// start somewhere. (The fresh run is a superset of the baseline, so
	// the completeness scan stays quiet.)
	superset := writeFile(t, dir, "superset.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkOther-8 \\t 1000000 \\t 1000 ns/op",
	))
	if err := run([]string{"-old", old, "-new", superset, "-bench", "BenchmarkREPTPerEdge,BenchmarkOther"}); err != nil {
		t.Errorf("run failed when only the baseline lacks a benchmark: %v", err)
	}
}

// TestRunFailsOnBaselineBenchmarkMissing is the regression test for the
// silent rename drop: a benchmark recorded in the baseline but absent
// from the fresh run historically passed (the per-name loop only checks
// the -bench list), so renaming a benchmark quietly removed it from the
// gate. It must be a hard failure carrying a rename hint.
func TestRunFailsOnBaselineBenchmarkMissing(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkRenamedAway-8 \\t 1000000 \\t 500 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFreshName-8 \\t 1000000 \\t 480 ns/op",
	))
	err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"})
	if err == nil {
		t.Fatal("run passed with a baseline benchmark missing from the fresh run")
	}
	if !strings.Contains(err.Error(), "BenchmarkRenamedAway") || !strings.Contains(err.Error(), "renamed") {
		t.Errorf("error %q must name the vanished benchmark and hint at a rename", err)
	}
}

// TestRunLatestPointer exercises the -latest pointer modes: no pointer
// yet is a clean skip, a healthy pointer resolves to the baseline, a
// self-pointing baseline skips, and a pointer naming a missing file is
// a hard error — never a silent skip.
func TestRunLatestPointer(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "BENCH_old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 180 ns/op",
		"BenchmarkViewPublishIdle-8 \\t 1000 \\t 900000 ns/op",
		"BenchmarkViewPublishEpoch-8 \\t 1000 \\t 1700000 ns/op",
		"BenchmarkEngineShardPowerLaw-8 \\t 1 \\t 1300000000 ns/op \\t 812.5 ns/event",
		"BenchmarkCompactWALChurn-8 \\t 50 \\t 25000000 ns/op",
	))
	fresh := writeFile(t, dir, "BENCH_new.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1300 ns/op", // +30% > 25%
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 180 ns/op",
		"BenchmarkViewPublishIdle-8 \\t 1000 \\t 900000 ns/op",
		"BenchmarkViewPublishEpoch-8 \\t 1000 \\t 1700000 ns/op",
		"BenchmarkEngineShardPowerLaw-8 \\t 1 \\t 1300000000 ns/op \\t 812.5 ns/event",
		"BenchmarkCompactWALChurn-8 \\t 50 \\t 25000000 ns/op",
	))
	pointer := filepath.Join(dir, "LATEST")

	// Pointer file absent: the trajectory starts here, clean skip.
	if err := run([]string{"-latest", pointer, "-new", fresh}); err != nil {
		t.Errorf("run failed with no pointer file yet: %v", err)
	}

	// Healthy pointer: resolves relative to the pointer's directory and
	// gates for real (the fresh file regressed, so the gate must fail).
	writeFile(t, dir, "LATEST", "BENCH_old.json\n")
	err := run([]string{"-latest", pointer, "-new", fresh})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkREPTPerEdge") {
		t.Errorf("run = %v, want a regression failure via the pointer baseline", err)
	}

	// Pointer naming the fresh file itself: nothing to compare.
	writeFile(t, dir, "LATEST", "BENCH_new.json\n")
	if err := run([]string{"-latest", pointer, "-new", fresh}); err != nil {
		t.Errorf("run failed when the fresh run is the baseline: %v", err)
	}

	// Pointer naming a missing file: hard error, not a skip.
	writeFile(t, dir, "LATEST", "BENCH_gone.json\n")
	err = run([]string{"-latest", pointer, "-new", fresh})
	if err == nil || !strings.Contains(err.Error(), "BENCH_gone.json") {
		t.Errorf("run = %v, want a hard error naming the missing baseline", err)
	}

	// Empty pointer: also a hard error.
	writeFile(t, dir, "LATEST", "\n")
	if err := run([]string{"-latest", pointer, "-new", fresh}); err == nil {
		t.Error("run succeeded with an empty pointer file")
	}

	// -old and -latest together are ambiguous.
	if err := run([]string{"-old", fresh, "-latest", pointer, "-new", fresh}); err == nil {
		t.Error("run accepted both -old and -latest")
	}
}

func TestRunPairWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkConcurrentPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkREPTPerEdgeInstrumented-8 \\t 1000000 \\t 1040 ns/op", // +4% < 5%
	))
	err := run([]string{"-new", fresh,
		"-pair", "BenchmarkREPTPerEdgeInstrumented=BenchmarkConcurrentPerEdge"})
	if err != nil {
		t.Errorf("pair gate failed within threshold: %v", err)
	}
}

func TestRunPairFailsOnOverhead(t *testing.T) {
	dir := t.TempDir()
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkConcurrentPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkREPTPerEdgeInstrumented-8 \\t 1000000 \\t 1080 ns/op", // +8% > 5%
	))
	err := run([]string{"-new", fresh,
		"-pair", "BenchmarkREPTPerEdgeInstrumented=BenchmarkConcurrentPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkREPTPerEdgeInstrumented is 1.08× BenchmarkConcurrentPerEdge") {
		t.Errorf("run = %v, want a pair-overhead failure naming both sides and the ratio", err)
	}
}

// TestRunPairRatioCap: an A=B@maxRatio entry gates on an absolute ratio
// instead of 1+pair-threshold — the batch-vs-per-event speedup gate
// (@0.5 = "batch must be at least 2× faster") rides on this.
func TestRunPairRatioCap(t *testing.T) {
	dir := t.TempDir()
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkApplyAllPerEvent-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 400 ns/op", // 0.40 ≤ 0.5
	))
	if err := run([]string{"-new", fresh,
		"-pair", "BenchmarkBatchIngestPerEvent=BenchmarkApplyAllPerEvent@0.5"}); err != nil {
		t.Errorf("pair gate failed under the explicit ratio cap: %v", err)
	}

	slow := writeFile(t, dir, "slow.json", jsonBench(
		"BenchmarkApplyAllPerEvent-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkBatchIngestPerEvent-8 \\t 1000000 \\t 600 ns/op", // 0.60 > 0.5
	))
	err := run([]string{"-new", slow,
		"-pair", "BenchmarkBatchIngestPerEvent=BenchmarkApplyAllPerEvent@0.5"})
	if err == nil || !strings.Contains(err.Error(), "0.50× cap") {
		t.Errorf("run = %v, want a failure against the 0.50× cap", err)
	}

	// A malformed cap must be a configuration error, not a silent pass.
	err = run([]string{"-new", fresh,
		"-pair", "BenchmarkBatchIngestPerEvent=BenchmarkApplyAllPerEvent@fast"})
	if err == nil || !strings.Contains(err.Error(), "not a positive number") {
		t.Errorf("run = %v, want a malformed-cap error", err)
	}
}

// TestRunPairPerRoundRatios: when both sides ran the same number of
// times, the pair gate takes the median of the per-round ratios A_i/B_i
// in file order. In the drifting recording the machine slows from round
// to round (100 → 180 ns) and the first two rounds' A runs caught extra
// load: median over median reads 144/140 = 1.03 and fails the 1.02 cap,
// though three of five rounds read exactly 1.00, which the per-round rule
// passes. A real 10% overhead in every round fails under both rules; with
// unequal run counts the gate falls back to median over median.
func TestRunPairPerRoundRatios(t *testing.T) {
	dir := t.TempDir()
	const pair = "BenchmarkIngestAccountedPerEvent=BenchmarkIngestUnaccountedPerEvent@1.02"
	record := func(name string, a, b []float64) string {
		var lines []string
		for i := 0; i < max(len(a), len(b)); i++ {
			round := []string{}
			if i < len(a) {
				round = append(round, fmt.Sprintf("BenchmarkIngestAccountedPerEvent-2 \\t 1000000 \\t %g ns/op", a[i]))
			}
			if i < len(b) {
				round = append(round, fmt.Sprintf("BenchmarkIngestUnaccountedPerEvent-2 \\t 1000000 \\t %g ns/op", b[i]))
			}
			if i%2 == 1 && len(round) == 2 {
				round[0], round[1] = round[1], round[0] // alternate which side runs first
			}
			lines = append(lines, round...)
		}
		return writeFile(t, dir, name, jsonBench(lines...))
	}
	drift := []float64{100, 120, 140, 160, 180}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}

	drifting := record("drift.json", []float64{120, 144, 140, 160, 180}, drift)
	rec, err := parseFile(drifting)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rec.results["BenchmarkIngestAccountedPerEvent"], rec.results["BenchmarkIngestUnaccountedPerEvent"]
	if old := a.nsOp / b.nsOp; old <= 1.02 {
		t.Fatalf("median over median = %.3f; the drifting recording must fail the old rule", old)
	}
	if r, rule := pairRatio(a, b); r != 1 || rule != "median of 5 per-round ratios" {
		t.Errorf("pairRatio = %v (%s), want 1 as the median of 5 per-round ratios", r, rule)
	}
	if err := run([]string{"-new", drifting, "-pair", pair}); err != nil {
		t.Errorf("run = %v, want the drifting recording to pass on per-round ratios", err)
	}

	for _, c := range []struct {
		name string
		a, b []float64
		rule string
	}{
		{"overhead.json", scaled(1.1, drift), drift, "median of 5 per-round ratios"},
		{"uneven.json", scaled(1.1, drift), drift[:4], "median over median"},
	} {
		path := record(c.name, c.a, c.b)
		rec, err := parseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, rule := pairRatio(rec.results["BenchmarkIngestAccountedPerEvent"], rec.results["BenchmarkIngestUnaccountedPerEvent"]); rule != c.rule {
			t.Errorf("%s: rule %q, want %q", c.name, rule, c.rule)
		}
		if err := run([]string{"-new", path, "-pair", pair}); err == nil || !strings.Contains(err.Error(), "exceeding the 1.02× cap") {
			t.Errorf("%s: run = %v, want a 10%% overhead to fail the 1.02 cap", c.name, err)
		}
	}
}

func TestRunPairMissingSide(t *testing.T) {
	dir := t.TempDir()
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkConcurrentPerEdge-8 \\t 1000000 \\t 1000 ns/op",
	))
	err := run([]string{"-new", fresh,
		"-pair", "BenchmarkREPTPerEdgeInstrumented=BenchmarkConcurrentPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("run = %v, want a missing-benchmark failure", err)
	}
}

// TestRunPairComposesWithBaseline: one invocation can run both gates;
// the pair verdict must not be masked by a clean baseline comparison.
func TestRunPairComposesWithBaseline(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 800 ns/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkConcurrentPerEdge-8 \\t 1000000 \\t 1000 ns/op",
		"BenchmarkREPTPerEdgeInstrumented-8 \\t 1000000 \\t 1200 ns/op", // +20% > 5%
	))
	err := run([]string{"-old", old, "-new", fresh,
		"-pair", "BenchmarkREPTPerEdgeInstrumented=BenchmarkConcurrentPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "pair regression") {
		t.Errorf("run = %v, want the pair failure to surface alongside a clean baseline", err)
	}
}

// TestParseFileBytesColumn: the -benchmem B/op column is parsed when
// present, also behind a custom metric column, and its absence is
// recorded, so byte gating can phase in.
func TestParseFileBytesColumn(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "b.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 700.5 ns/op \\t 12 B/op \\t 1 allocs/op",
		"BenchmarkFullyDynamicChurnPerEvent-8 \\t 1000000 \\t 450 ns/op \\t 0 B/op \\t 0 allocs/op",
		"BenchmarkREPTPerEdgeWAL-8 \\t 1000000 \\t 1500 ns/op",
		"BenchmarkEngineShardPowerLaw-8 \\t 1 \\t 1289600733 ns/op \\t 806.0 ns/event \\t 672963056 B/op \\t 121302 allocs/op",
	))
	rec, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := rec.results["BenchmarkREPTPerEdge"]; !r.hasB || r.bOp != 12 {
		t.Errorf("BenchmarkREPTPerEdge = %+v, want 12 B/op recorded", r)
	}
	if r := rec.results["BenchmarkFullyDynamicChurnPerEvent"]; !r.hasB || r.bOp != 0 {
		t.Errorf("zero-alloc benchmark = %+v, want an explicit 0 B/op", r)
	}
	if r := rec.results["BenchmarkREPTPerEdgeWAL"]; r.hasB {
		t.Errorf("no-benchmem line = %+v, want hasB=false", r)
	}
	if r := rec.results["BenchmarkEngineShardPowerLaw"]; !r.hasB || r.bOp != 672963056 || r.nsOp != 1289600733 {
		t.Errorf("custom-metric line = %+v, want 1289600733 ns/op and 672963056 B/op", r)
	}
}

// baselinePair builds matched old/new recordings for the byte-gate
// baseline tests: identical ns/op everywhere (timing never trips), byte
// columns as given (empty string = no -benchmem column).
func baselinePair(t *testing.T, dir, oldB, newB string) (string, string) {
	t.Helper()
	line := func(b string) string {
		s := " \\t 1000000 \\t 1000 ns/op"
		if b != "" {
			s += " \\t " + b + " B/op"
		}
		return s
	}
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8"+line(oldB),
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-8"+line(newB),
	))
	return old, fresh
}

// TestRunBytesBaselineGate: B/op regressions beyond threshold+slack fail
// the baseline gate even when ns/op is unchanged; small absolute byte
// growth inside the slack passes (per-event byte costs are near-integer
// noise around allocator size classes).
func TestRunBytesBaselineGate(t *testing.T) {
	dir := t.TempDir()

	// 0 -> 12 B/op: inside the 16-byte slack, passes.
	old, fresh := baselinePair(t, dir, "0", "12")
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run = %v, want growth inside the byte slack to pass", err)
	}

	// 0 -> 64 B/op: a real new allocation on a zero baseline, fails.
	dir2 := t.TempDir()
	old, fresh = baselinePair(t, dir2, "0", "64")
	err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Errorf("run = %v, want a bytes/event regression failure", err)
	}

	// 1000 -> 1100 B/op: +10% < 25% threshold, passes.
	dir3 := t.TempDir()
	old, fresh = baselinePair(t, dir3, "1000", "1100")
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run = %v, want +10%% bytes within the 25%% threshold to pass", err)
	}

	// 1000 -> 1500 B/op: +50% > 25%, fails.
	dir4 := t.TempDir()
	old, fresh = baselinePair(t, dir4, "1000", "1500")
	err = run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"})
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Errorf("run = %v, want a bytes/event regression failure at +50%%", err)
	}
}

// TestRunBytesPhaseIn: a baseline recorded before -benchmem has no byte
// column; the first -benchmem run must start the byte trajectory with a
// note instead of failing — and the reverse (fresh run without
// -benchmem) must not gate bytes at all.
func TestRunBytesPhaseIn(t *testing.T) {
	dir := t.TempDir()
	old, fresh := baselinePair(t, dir, "", "4096")
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run = %v, want a byte-less baseline to phase in cleanly", err)
	}
	dir2 := t.TempDir()
	old, fresh = baselinePair(t, dir2, "4096", "")
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run = %v, want a byte-less fresh run to skip byte gating", err)
	}
}

// TestRunPairBytesGate: the within-run pair gate bounds A's B/op against
// B's under the same ratio cap plus the absolute slack — the
// accounted-vs-unaccounted ingest pair proves "the ledger costs neither
// time nor allocation" through this gate.
func TestRunPairBytesGate(t *testing.T) {
	dir := t.TempDir()
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkIngestUnaccountedPerEvent-8 \\t 1000000 \\t 1000 ns/op \\t 0 B/op",
		"BenchmarkIngestAccountedPerEvent-8 \\t 1000000 \\t 1010 ns/op \\t 0 B/op",
	))
	if err := run([]string{"-new", fresh,
		"-pair", "BenchmarkIngestAccountedPerEvent=BenchmarkIngestUnaccountedPerEvent@1.02"}); err != nil {
		t.Errorf("run = %v, want a 0 B/op pair within the 1.02 cap to pass", err)
	}

	alloc := writeFile(t, dir, "alloc.json", jsonBench(
		"BenchmarkIngestUnaccountedPerEvent-8 \\t 1000000 \\t 1000 ns/op \\t 0 B/op",
		"BenchmarkIngestAccountedPerEvent-8 \\t 1000000 \\t 1010 ns/op \\t 128 B/op",
	))
	err := run([]string{"-new", alloc,
		"-pair", "BenchmarkIngestAccountedPerEvent=BenchmarkIngestUnaccountedPerEvent@1.02"})
	if err == nil || !strings.Contains(err.Error(), "allocates") {
		t.Errorf("run = %v, want a pair byte failure when the accounted side allocates", err)
	}
}

// TestParseFileMediansOfRuns: repeated runs of one benchmark (a -count=5
// recording) reduce to their median ns/op and B/op, and the one-iteration
// entry of a -benchtime=1x sweep is dropped when longer runs exist — so a
// gate compares the middle of each side, not one lucky or unlucky sample.
func TestParseFileMediansOfRuns(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "b.json", jsonBench(
		"BenchmarkREPTPerEdge-2 \\t 1 \\t 99999 ns/op",
		"BenchmarkREPTPerEdge-2 \\t 500000 \\t 930 ns/op \\t 170 B/op",
		"BenchmarkREPTPerEdge-2 \\t 600000 \\t 1100 ns/op \\t 166 B/op",
		"BenchmarkREPTPerEdge-2 \\t 610000 \\t 1000 ns/op \\t 166 B/op",
		"BenchmarkREPTPerEdge-2 \\t 560000 \\t 1040 ns/op \\t 166 B/op",
		"BenchmarkREPTPerEdge-2 \\t 420000 \\t 1060 ns/op \\t 171 B/op",
		"BenchmarkTable2 \\t 1 \\t 5000000 ns/op",
		"BenchmarkEven-2 \\t 100 \\t 10 ns/op",
		"BenchmarkEven-2 \\t 100 \\t 20 ns/op",
	))
	rec, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := rec.results["BenchmarkREPTPerEdge"]
	if r.nsOp != 1040 || r.bOp != 166 || !r.hasB || r.runs != 5 || r.procs != 2 || r.iters != 610000 {
		t.Errorf("BenchmarkREPTPerEdge = %+v, want median 1040 ns/op and 166 B/op over 5 runs at GOMAXPROCS 2", r)
	}
	if r := rec.results["BenchmarkTable2"]; r.nsOp != 5000000 || r.runs != 1 || r.procs != 1 {
		t.Errorf("sweep-only benchmark = %+v, want its single 1x entry at GOMAXPROCS 1 (no suffix)", r)
	}
	if r := rec.results["BenchmarkEven"]; r.nsOp != 15 {
		t.Errorf("even run count = %+v, want the mean of the middle two (15 ns/op)", r)
	}

	mixed := writeFile(t, dir, "mixed.json", jsonBench(
		"BenchmarkREPTPerEdge-2 \\t 500000 \\t 930 ns/op",
		"BenchmarkREPTPerEdge-4 \\t 500000 \\t 530 ns/op",
	))
	if _, err := parseFile(mixed); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("parseFile = %v, want runs at two GOMAXPROCS rejected", err)
	}
}

// TestRunRefusesCrossGOMAXPROCS: a baseline recorded at another GOMAXPROCS
// is not compared (the regression below would otherwise fail), and a
// within-run pair whose sides ran at different GOMAXPROCS is an error.
func TestRunRefusesCrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	old := writeFile(t, dir, "old.json", jsonBench(
		"BenchmarkREPTPerEdge-8 \\t 1000000 \\t 100 ns/op",
	))
	fresh := writeFile(t, dir, "new.json", jsonBench(
		"BenchmarkREPTPerEdge-2 \\t 1000000 \\t 9999 ns/op",
		"BenchmarkConcurrentPerEdge \\t 1000000 \\t 100 ns/op",
	))
	if err := run([]string{"-old", old, "-new", fresh, "-bench", "BenchmarkREPTPerEdge"}); err != nil {
		t.Errorf("run = %v, want the cross-GOMAXPROCS comparison refused, not gated", err)
	}
	err := run([]string{"-new", fresh, "-pair", "BenchmarkREPTPerEdge=BenchmarkConcurrentPerEdge@100"})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("run = %v, want a pair across GOMAXPROCS refused", err)
	}
}
