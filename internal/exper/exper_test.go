package exper

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testProfile is even smaller than Quick: unit tests must stay fast.
var testProfile = Profile{
	Name:            "test",
	Scale:           0.06,
	Datasets:        []string{"sim-flickr", "sim-youtube"},
	LocalDatasets:   []string{"sim-youtube"},
	RuntimeDatasets: []string{"sim-youtube"},
	GlobalRuns:      6,
	LocalRuns:       4,
	Trials:          16,
	CSmallP:         []int{20, 320},
	CLargeP:         []int{2, 32},
	CLocalSmallP:    []int{20},
	CLocalLargeP:    []int{4},
	InvPs:           []int{2, 8},
	RuntimeC:        4,
	Workers:         2,
}

func TestLoadAndCache(t *testing.T) {
	d1, err := Load("sim-youtube", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Exact.Tau == 0 {
		t.Error("sim-youtube has zero triangles; generator parameters broken")
	}
	d2, err := Load("sim-youtube", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("cache miss for identical (name, scale)")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Error("Load(unknown): got nil error")
	}
	if len(Names()) != 8 {
		t.Errorf("registry has %d datasets, want 8 (paper Table II)", len(Names()))
	}
}

func TestDatasetEtaSpread(t *testing.T) {
	// The substitution promise (see the package documentation): η/τ must
	// span a wide range so that the covariance term matters on some
	// datasets and not others.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, name := range []string{"sim-flickr", "sim-youtube", "sim-wikitalk", "sim-webgoogle"} {
		d, err := Load(name, 0.06)
		if err != nil {
			t.Fatal(err)
		}
		if d.Exact.Tau == 0 {
			t.Fatalf("%s: zero triangles", name)
		}
		r := d.Eta() / d.Tau()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi < 4*lo {
		t.Errorf("η/τ spread too narrow: [%v, %v]", lo, hi)
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "full", ""} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("ProfileByName(bogus): got nil error")
	}
}

func TestTable2AndFig1(t *testing.T) {
	tb, err := Table2(testProfile)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(testProfile.Datasets) {
		t.Errorf("table2 rows = %d, want %d", len(tb.Rows), len(testProfile.Datasets))
	}
	f1, err := Fig1(testProfile)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != len(testProfile.Datasets) {
		t.Errorf("fig1 rows = %d, want %d", len(f1.Rows), len(testProfile.Datasets))
	}
	// Rendering must not fail and must include the title.
	var buf bytes.Buffer
	if err := f1.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig1") {
		t.Error("rendered table missing id")
	}
}

// TestGlobalAccuracyShape asserts the paper's two headline orderings on
// the clustered dataset: (1) REPT is more accurate than every baseline at
// every c; (2) REPT's error decreases as c grows.
func TestGlobalAccuracyShape(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	p.GlobalRuns = 10
	r, err := GlobalAccuracy(p, 10, []int{2, 10, 32}, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(r.Points))
	}
	for _, pt := range r.Points {
		if math.IsNaN(pt.REPT) || math.IsNaN(pt.Mascot) {
			t.Fatalf("NaN NRMSE at c=%d", pt.C)
		}
		if pt.REPT >= pt.Mascot {
			t.Errorf("c=%d: REPT NRMSE %.4f not below MASCOT %.4f", pt.C, pt.REPT, pt.Mascot)
		}
		if pt.REPT >= pt.GPS {
			t.Errorf("c=%d: REPT NRMSE %.4f not below GPS %.4f", pt.C, pt.REPT, pt.GPS)
		}
		// Monte-Carlo NRMSE with few runs is noisy; theory overlays are
		// exact and must honor the paper's inequality strictly.
		if pt.REPTTheory >= pt.MascotTheory {
			t.Errorf("c=%d: theory REPT %.4f not below theory MASCOT %.4f", pt.C, pt.REPTTheory, pt.MascotTheory)
		}
	}
	// c = 10 equals m: covariance eliminated; theory NRMSE should drop
	// sharply from c=2 to c=32.
	if r.Points[2].REPTTheory >= r.Points[0].REPTTheory {
		t.Error("REPT theory error did not decrease with c")
	}
	if r.Points[2].REPT >= r.Points[0].REPT*1.5 {
		t.Errorf("REPT empirical error at c=32 (%.4f) not clearly below c=2 (%.4f)",
			r.Points[2].REPT, r.Points[0].REPT)
	}
}

func TestLocalAccuracyShape(t *testing.T) {
	p := testProfile
	p.LocalDatasets = []string{"sim-flickr"}
	p.LocalRuns = 6
	r, err := LocalAccuracy(p, 10, []int{2, 10}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(r.Points))
	}
	for _, pt := range r.Points {
		if math.IsNaN(pt.REPT) || math.IsNaN(pt.Mascot) || math.IsNaN(pt.Triest) {
			t.Fatalf("NaN local NRMSE at c=%d", pt.C)
		}
		if pt.REPT <= 0 || pt.Mascot <= 0 {
			t.Fatalf("non-positive local NRMSE at c=%d", pt.C)
		}
		// Paper Figs. 5-6: REPT below the parallel baselines. The
		// closed-form columns are exact, so assert strictly on them.
		if pt.REPTTheory >= pt.MascotTheory {
			t.Errorf("c=%d: local theory REPT %.3f not below MASCOT %.3f", pt.C, pt.REPTTheory, pt.MascotTheory)
		}
	}
	// Error decreases with c (both measured and exact).
	if r.Points[1].REPT >= r.Points[0].REPT {
		t.Errorf("local REPT error did not decrease with c: %.3f -> %.3f",
			r.Points[0].REPT, r.Points[1].REPT)
	}
	if r.Points[1].REPTTheory >= r.Points[0].REPTTheory {
		t.Errorf("local REPT theory error did not decrease with c: %.3f -> %.3f",
			r.Points[0].REPTTheory, r.Points[1].REPTTheory)
	}
}

func TestRuntimeFig7Runs(t *testing.T) {
	r, err := RuntimeFig7(testProfile, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := len(testProfile.RuntimeDatasets) * len(testProfile.InvPs)
	if len(r.Points) != want {
		t.Fatalf("got %d points, want %d", len(r.Points), want)
	}
	for _, pt := range r.Points {
		if pt.REPT <= 0 || pt.Mascot <= 0 || pt.Triest <= 0 || pt.GPS <= 0 {
			t.Errorf("non-positive runtime: %+v", pt)
		}
	}
}

func TestVarianceValidation(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	p.GlobalRuns = 25 // 75 runs per cell
	r, err := VarianceValidation(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		if pt.Theory <= 0 {
			t.Errorf("m=%d c=%d: non-positive theory variance", pt.M, pt.C)
			continue
		}
		if pt.Ratio < 0.4 || pt.Ratio > 2.5 {
			t.Errorf("m=%d c=%d: empirical/theory ratio %.2f outside [0.4, 2.5]", pt.M, pt.C, pt.Ratio)
		}
	}
}

func TestAblations(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	tb, err := AblationCombine(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Error("ablation-combine produced no rows")
	}
	th, err := AblationHash(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(th.Rows) == 0 {
		t.Error("ablation-hash produced no rows")
	}
}

func TestVariantsExperiment(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	p.Trials = 30
	tb, err := Variants(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0]) != 5 {
		t.Fatalf("unexpected table shape: %v", tb.Rows)
	}
	// Columns: dataset, MASCOT, MASCOT-C, Triest-IMPR, Triest-BASE.
	mascot := atofOrFail(t, tb.Rows[0][1])
	mascotC := atofOrFail(t, tb.Rows[0][2])
	impr := atofOrFail(t, tb.Rows[0][3])
	base := atofOrFail(t, tb.Rows[0][4])
	if mascotC <= mascot {
		t.Errorf("MASCOT-C NRMSE %.4f not above improved MASCOT %.4f", mascotC, mascot)
	}
	if base <= impr {
		t.Errorf("TRIÈST-BASE NRMSE %.4f not above IMPR %.4f", base, impr)
	}
}

func TestLimitsExperiment(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	p.GlobalRuns = 20
	tb, err := Limits(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("unexpected table shape: %v", tb.Rows)
	}
	rept := atofOrFail(t, tb.Rows[0][3])
	wedge := atofOrFail(t, tb.Rows[0][4])
	// Paper §III-D: static wedge sampling is more accurate at comparable
	// effort on an in-memory graph.
	if wedge >= rept {
		t.Errorf("wedge NRMSE %.4f not below REPT %.4f (paper §III-D)", wedge, rept)
	}
}

func TestCoverageExperiment(t *testing.T) {
	p := testProfile
	p.Datasets = []string{"sim-flickr"}
	p.GlobalRuns = 30
	tb, err := Coverage(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		cov := atofOrFail(t, row[3])
		if cov < 0.80 || cov > 1.0 {
			t.Errorf("coverage %v for m=%s c=%s outside [0.80, 1.0]", cov, row[1], row[2])
		}
	}
}

func atofOrFail(t *testing.T, s string) float64 {
	t.Helper()
	var x float64
	if _, err := fmt.Sscanf(s, "%g", &x); err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return x
}

func TestRunAllAndCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	// Run the two cheapest experiments through the dispatcher.
	if err := Run("table2", testProfile, 1, &buf, dir); err != nil {
		t.Fatal(err)
	}
	if err := Run("fig1", testProfile, 1, &buf, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table2.csv", "fig1.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing CSV %s: %v", f, err)
		}
		if !strings.Contains(string(data), "dataset") {
			t.Errorf("%s missing header", f)
		}
	}
	if err := Run("bogus", testProfile, 1, &buf, ""); err == nil {
		t.Error("Run(bogus): got nil error")
	}
	if !strings.Contains(buf.String(), "table2") {
		t.Error("output missing table2")
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 is the most expensive experiment")
	}
	p := testProfile
	p.GlobalRuns = 3
	p.Trials = 6
	r, err := Fig8(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 { // 5 c-values at 1/p=10 plus 4 at 1/p=100
		t.Fatalf("got %d points, want 9", len(r.Points))
	}
	for _, pt := range r.Points {
		if pt.REPTTime <= 0 || pt.MascotSTime <= 0 {
			t.Errorf("non-positive time: %+v", pt)
		}
		if math.IsNaN(pt.REPTErr) {
			t.Errorf("NaN REPT error at c=%d", pt.C)
		}
	}
}
