// Package core implements REPT (random edge partition and triangle
// counting), the primary contribution of the reproduced paper: a one-pass
// parallel streaming estimator of global and local triangle counts.
//
// Two interchangeable engines produce bit-identical per-processor counters
// given the same Config:
//
//   - Engine: the deployable implementation. C logical processors, each
//     storing only its own sampled edge set E⁽ⁱ⁾ (expected p·|E| edges),
//     as in the paper's distributed-memory model (Algorithms 1, 2). Every
//     event, insertion or deletion, takes one presence-mask walk that
//     visits each group's storing processor plus the processors whose
//     sample holds both endpoints — the only processors whose counters
//     can move — so an event costs a handful of visits, not C. One node
//     dictionary per engine holds every node's presence masks and its
//     neighbor-set slot on every processor, so the walk probes a hash
//     table once per endpoint, however many processors it visits. A
//     batch is walked in small groups of events, each staged first: the
//     group's dictionary probes, then its dictionary rows, then its
//     storing processors' neighbor-set entries are loaded one step at a
//     time across the group, so their cache misses overlap instead of
//     queueing behind each other, and the walks reuse the keys, ids and
//     colors staging resolved.
//
//   - Sim: a single-pass evaluator over one shared colored adjacency
//     structure that computes every processor's counters simultaneously.
//     It is used by the experiment harness, where many Monte-Carlo runs
//     are needed; it also yields the counters of every c' ≤ C in the same
//     pass.
//
// Terminology follows the paper: p = 1/m is the edge sampling probability,
// c the number of logical processors, grouped as c = c₁·m + c₂ with c₁
// full groups of m processors and one partial group of c₂ (Section III-B).
// Each group uses its own independent hash function; within a group,
// processor j stores exactly the edges the group hash colors j.
package core

import (
	"errors"
	"fmt"

	"rept/internal/hashing"
)

// MaxM bounds the sampling denominator m; colors are stored in uint16 by
// the Sim engine and experiments never go beyond m = 1/p = 100.
const MaxM = 1 << 16

// Config parameterizes a REPT estimator.
type Config struct {
	// M is the sampling denominator: each processor samples each edge
	// with probability p = 1/M. M = 1 is the degenerate exact case.
	M int
	// C is the number of logical processors.
	C int
	// Seed drives the hash family; estimates are deterministic in
	// (Config, stream).
	Seed int64
	// TrackLocal enables per-node (local) triangle count estimation.
	TrackLocal bool
	// FullyDynamic enables signed streams: Delete/Apply with deletion
	// events. Counters then estimate the NET (live-graph) triangle
	// statistics; insert-only behavior is bit-identical whether the flag
	// is set or not. The flag is part of the snapshot fingerprint. With
	// fixed-probability hash-partition sampling the random-pairing
	// compensation of TRIÈST-FD degenerates to the identity — a deleted
	// sampled edge's slot is re-filled exactly when its key re-arrives —
	// so the m²/c unbiasing factors are unchanged; the d_i/d_o pairing
	// counters are still tracked (Engine.PairingCounters) for diagnostics
	// and carried by snapshots.
	FullyDynamic bool
	// TrackEta forces η⁽ⁱ⁾ bookkeeping even when the (M, C) combination
	// does not require it for the estimate (useful for diagnostics and
	// the variance-validation experiment). When C > M with C%M ≠ 0 the
	// bookkeeping is enabled regardless, as Algorithm 2 requires η̂.
	TrackEta bool
	// HashFamily overrides the edge-hash family (one Hasher per processor
	// group, each mapping edge keys uniformly to [0, M)). Nil selects the
	// default seeded 64-bit mixer family. Used by the hash-quality
	// ablation experiment; production callers should leave it nil.
	HashFamily func(masterSeed uint64, count, m int) []Hasher
}

// Hasher maps canonical edge keys to colors in [0, m). Implementations
// must be deterministic and stateless.
type Hasher interface {
	Color(key uint64) int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.M < 1 {
		return fmt.Errorf("core: M = %d, need M >= 1", c.M)
	}
	if c.M > MaxM {
		return fmt.Errorf("core: M = %d exceeds MaxM = %d", c.M, MaxM)
	}
	if c.C < 1 {
		return fmt.Errorf("core: C = %d, need C >= 1", c.C)
	}
	return nil
}

// ErrClosed is returned or panicked on use of an engine after Close.
var ErrClosed = errors.New("core: engine is closed")

// ErrNotDynamic is panicked when a deletion is fed to an engine built
// without Config.FullyDynamic.
var ErrNotDynamic = errors.New("core: deletions require Config.FullyDynamic")

// ErrEtaDownsample is returned by Downsample on engines that track η: the
// per-edge closing counters accumulate against the historical sample and
// have no sound rescale, so adaptive resampling is unavailable there.
var ErrEtaDownsample = errors.New("core: cannot downsample an engine tracking η (per-edge closing counters have no sound rescale)")

// layout captures the processor-group structure for (m, c).
type layout struct {
	m, c   int
	c1     int // number of full groups (c / m)
	c2     int // processors in the trailing partial group (c % m)
	groups int // c1 + (1 if c2 > 0)
}

func newLayout(m, c int) layout {
	l := layout{m: m, c: c, c1: c / m, c2: c % m}
	l.groups = l.c1
	if l.c2 > 0 {
		l.groups++
	}
	return l
}

// groupOf returns the group index of logical processor i.
func (l layout) groupOf(i int) int { return i / l.m }

// colorOf returns the within-group color of logical processor i.
func (l layout) colorOf(i int) int { return i % l.m }

// isPartialGroup reports whether group g is the trailing partial group.
func (l layout) isPartialGroup(g int) bool { return l.c2 > 0 && g == l.c1 }

// isPartialProc reports whether logical processor i belongs to the
// partial group.
func (l layout) isPartialProc(i int) bool { return i >= l.c1*l.m }

// activeColors returns how many processors (colors) group g actually has.
func (l layout) activeColors(g int) int {
	if l.isPartialGroup(g) {
		return l.c2
	}
	return l.m
}

// needsEta reports whether the estimate requires η̂ (Algorithm 2 with
// c₂ ≠ 0, i.e. the Graybill–Deal combination of τ̂⁽¹⁾ and τ̂⁽²⁾).
func (l layout) needsEta() bool { return l.c1 > 0 && l.c2 > 0 }

// hashFamily resolves the configured or default hash family.
func (c Config) hashFamily(count int) []Hasher {
	if c.HashFamily != nil {
		return c.HashFamily(uint64(c.Seed), count, c.M)
	}
	return defaultHashFamily(uint64(c.Seed), count, c.M)
}

// defaultHashFamily wraps the seeded 64-bit mixer family from
// internal/hashing, the paper's h(·) and (h₁(·), h₂(·), ...).
func defaultHashFamily(masterSeed uint64, count, m int) []Hasher {
	fam := hashing.Family(masterSeed, count, m)
	out := make([]Hasher, count)
	for i := range fam {
		out[i] = fam[i]
	}
	return out
}
