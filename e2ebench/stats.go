package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"

	"rept/internal/obs"
)

// minBeyond is how many samples must rank above a reported percentile; a
// tail figure resting on fewer is noise, so the run fails instead.
const minBeyond = 10

// metricName is the grammar every printed metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and how
// many samples rank above it. xs is not reordered.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n that should be an integer (0.99*1000) from
	// rounding up to the next rank.
	rank := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	rank = max(rank, 0)
	return s[rank], len(s) - 1 - rank
}

// quantile is percentile for a reported figure: it refuses a quantile with
// fewer than minBeyond samples ranked above it.
func quantile(name string, xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g of %d samples has %d beyond it, need %d", name, q*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// segments is how many equal parts of the window windowed takes a quantile
// of.
const segments = 5

// windowed splits samples xs, answered at times at, into segments equal
// parts of the window [t0, end) and returns the median of the parts'
// q-quantiles: a burst (a GC cycle, a slow publish) that lands in one part
// moves one of the figures, not the result.
func windowed(name string, xs []float64, at []time.Time, t0, end time.Time, q float64) (float64, error) {
	span := end.Sub(t0)
	if span <= 0 {
		return 0, fmt.Errorf("%s: empty window", name)
	}
	parts := make([][]float64, segments)
	for i, x := range xs {
		j := min(max(int(int64(at[i].Sub(t0))*segments/int64(span)), 0), segments-1)
		parts[j] = append(parts[j], x)
	}
	per := make([]float64, segments)
	for j, p := range parts {
		v, err := quantile(fmt.Sprintf("%s, part %d of the window", name, j+1), p, q)
		if err != nil {
			return 0, err
		}
		per[j] = v
	}
	v, _ := percentile(per, 0.5)
	return v, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// series sums every sample of e named name (histogram _sum/_count/_bucket
// children included), restricted to samples whose label key has value when
// key is non-empty. A missing series reads as 0: reptserve registers its
// WAL series only with -wal-dir.
func series(e *obs.Exposition, name, key, value string) float64 {
	f := e.Family(name)
	if f == nil {
		for _, suf := range []string{"_sum", "_count", "_bucket"} {
			if base, ok := strings.CutSuffix(name, suf); ok {
				f = e.Family(base)
				break
			}
		}
	}
	if f == nil {
		return 0
	}
	var sum float64
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name != name {
			continue
		}
		if key != "" {
			if v, _ := s.Get(key); v != value {
				continue
			}
		}
		sum += s.Value
	}
	return sum
}

// delta is how much a series grew between two scrapes.
func delta(before, after *obs.Exposition, name string) float64 {
	return series(after, name, "", "") - series(before, name, "", "")
}
