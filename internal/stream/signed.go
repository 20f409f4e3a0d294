package stream

import (
	"fmt"

	"rept/internal/graph"
)

// ValidateWellFormed checks the well-formedness contract fully-dynamic
// consumers assume: every deletion targets a currently-live edge and
// every insertion a currently-absent one (self-loops are exempt; they are
// skipped downstream anyway). It returns the first violation with its
// 0-based event index, or nil. The check costs one hash-set entry per
// live edge; use it in tests and offline tooling, not on hot paths.
func ValidateWellFormed(ups []graph.Update) error {
	live := make(map[uint64]struct{})
	for i, up := range ups {
		if up.U == up.V {
			continue
		}
		k := graph.Key(up.U, up.V)
		_, ok := live[k]
		if up.Del {
			if !ok {
				return fmt.Errorf("stream: event %d deletes edge (%d,%d) which is not live", i, up.U, up.V)
			}
			delete(live, k)
		} else {
			if ok {
				return fmt.Errorf("stream: event %d re-inserts live edge (%d,%d)", i, up.U, up.V)
			}
			live[k] = struct{}{}
		}
	}
	return nil
}
