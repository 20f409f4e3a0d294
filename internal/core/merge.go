package core

import (
	"fmt"

	"rept/internal/graph"
)

// MergeGroups combines Aggregates from disjoint processor shards — e.g.
// one shard per machine in a cluster — into a single Aggregates
// equivalent to running REPT with the concatenated processor list.
//
// Requirements (checked):
//   - all shards share the same M;
//   - every shard except the last consists of full groups (C % M == 0),
//     so that the concatenation has the canonical c = c₁m + c₂ layout.
//
// Correctness additionally requires that shards were built with
// independent seeds (group hashes must be mutually independent, paper
// Section III-B); that is the caller's responsibility and cannot be
// verified from the counters.
//
// η counters are merged only when every shard tracked them; otherwise the
// merged EtaProc is nil and, if the merged layout needs Algorithm 2's
// combination, the variance weights degrade gracefully (η̂ = 0) while the
// estimate remains unbiased. The merge must not depend on iteration
// order — merged aggregates feed canonical snapshots — so the per-node
// class sums are combined by graph.SumTables, a commutative integer sum
// over flat tables that builds no Go map.
//
//rept:deterministic
func MergeGroups(shards ...*Aggregates) (*Aggregates, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: MergeGroups needs at least one shard")
	}
	m := shards[0].M
	shift := shards[0].Shift
	total := 0
	allEta := true
	allEtaV := true
	anyLocal := false
	for i, s := range shards {
		if s.M != m {
			return nil, fmt.Errorf("core: shard %d has M=%d, want %d", i, s.M, m)
		}
		if s.Shift != shift {
			return nil, fmt.Errorf("core: shard %d has sample shift %d, want %d (shards must downsample in lockstep)", i, s.Shift, shift)
		}
		if err := s.SanityCheck(); err != nil {
			return nil, err
		}
		if i < len(shards)-1 && s.C%m != 0 {
			return nil, fmt.Errorf("core: shard %d has C=%d not a multiple of M=%d (only the last shard may hold a partial group)", i, s.C, m)
		}
		total += s.C
		if s.EtaProc == nil {
			allEta = false
		}
		if s.EtaV == nil {
			allEtaV = false
		}
		if s.TauV1 != nil || s.TauV2 != nil {
			anyLocal = true
		}
	}
	out := &Aggregates{M: m, C: total, Shift: shift, TauProc: make([]int64, 0, total)}
	if allEta {
		out.EtaProc = make([]int64, 0, total)
	}
	var tau1, tau2, etaV []*graph.NodeTable[int64]
	for i, s := range shards {
		out.TauProc = append(out.TauProc, s.TauProc...)
		if allEta {
			out.EtaProc = append(out.EtaProc, s.EtaProc...)
		}
		if !anyLocal {
			continue
		}
		// Full-group shards contribute to class 1 regardless of how they
		// were classified locally (a shard with C ≤ M stores its sums in
		// TauV2 even though, within the merged layout, those processors
		// form full groups). Only a final shard holding a partial group
		// keeps its own class split.
		tau1 = append(tau1, s.TauV1)
		if i == len(shards)-1 && s.C%m != 0 {
			tau2 = append(tau2, s.TauV2)
		} else {
			tau1 = append(tau1, s.TauV2)
		}
		etaV = append(etaV, s.EtaV)
	}
	if anyLocal {
		out.TauV1 = graph.SumTables(tau1...)
		out.TauV2 = graph.SumTables(tau2...)
		// η̂_v scales by the merged C, so a partial sum would bias it:
		// merge EtaV only when every shard tracked it.
		if allEtaV {
			out.EtaV = graph.SumTables(etaV...)
		}
	}
	return out, nil
}
