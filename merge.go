package rept

import (
	"fmt"

	"rept/internal/core"
)

// Merge combines the counters of several REPT estimators that processed
// the SAME stream with DIFFERENT seeds into a single estimate, as if one
// estimator with the concatenated processor list had run. This is the
// distributed deployment pattern of paper Section III-B: each machine
// hosts one or more full processor groups, and group independence comes
// from independent seeds.
//
// Requirements:
//   - all estimators share the same M;
//   - every estimator except the last must have C as a multiple of M
//     (full groups); the last may hold a partial group;
//   - seeds must be pairwise distinct (checked) and should be independent;
//   - all estimators must have processed the same stream (not checkable
//     from counters; the caller must guarantee it).
//
// The merged estimate has the variance of REPT with c = ΣCᵢ processors
// (paper Section III-B): e.g. K machines each running C = M yield
// Var(τ̂) = τ(m−1)/K.
func Merge(ests ...*Estimator) (Estimate, error) {
	if len(ests) == 0 {
		return Estimate{}, fmt.Errorf("rept: Merge needs at least one estimator")
	}
	seen := make(map[int64]bool, len(ests))
	shards := make([]*core.Aggregates, len(ests))
	var processed uint64
	for i, e := range ests {
		cfg := e.Config()
		if seen[cfg.Seed] {
			return Estimate{}, fmt.Errorf("rept: Merge estimator %d shares seed %d with an earlier one; group hashes must be independent", i, cfg.Seed)
		}
		seen[cfg.Seed] = true
		if i == 0 {
			processed = e.Processed()
		} else if e.Processed() != processed {
			return Estimate{}, fmt.Errorf("rept: estimator %d processed %d edges, others %d; Merge requires identical streams", i, e.Processed(), processed)
		}
		shards[i] = e.eng.Aggregates()
	}
	merged, err := core.MergeGroups(shards...)
	if err != nil {
		return Estimate{}, fmt.Errorf("rept: %w", err)
	}
	return merged.Estimate(), nil
}
