// Package mem is the byte ledger behind the adaptive control plane: a
// per-component atomic accountant that the owners of the storage layers
// keep current. The contract that keeps it off the hot path is that
// nothing is charged per event. The shard goroutine that owns each
// engine moves the adjacency, masks and counters entries to the
// engine's footprint, recomputed from capacities, after every applied
// batch and every barrier, and the degree tracker does the same for the
// degree table; a queue is charged when it is built, a view when it is
// published, and the write-ahead log as its buffers and segments change.
// A batch that changed no capacity therefore performs zero ledger
// operations; the AllocsPerRun gates hold the accounted ingest path
// allocation-free.
//
// TRIÈST (PAPERS.md) frames the streaming trade-off this ledger exists
// to serve: a fixed memory budget with sampling adapted online. The
// accountant supplies the "bytes in use, by whom" half; the controller
// in internal/control supplies the policy half.
package mem

import "sync/atomic"

// Component identifies one accounted storage layer.
type Component int

// The accounted components, one per flat storage family. CompWALSegments
// is disk-class (bytes in sealed and active log segments on the backend),
// so MemoryTotal excludes it; everything else is process memory.
const (
	// CompAdjacency covers the sampled neighbor sets: every engine
	// processor's graph.NeighborSets (the neighbor-set arena and the side
	// store of the tables of sets past the inline capacity).
	CompAdjacency Component = iota
	// CompCounters covers the core counter tables: the per-edge ctab
	// (a graph.EdgeTable) and each engine's per-node class-sum tables and
	// their delta (graph.NodeTables). The shard layer reconciles it with
	// the engines' footprints, so the component is exact at every batch
	// and barrier.
	CompCounters
	// CompDegrees covers graph.DegreeTable: the flat degree table and
	// the live-edge membership set.
	CompDegrees
	// CompMasks covers each engine's node dictionary: the NodeID → id
	// index and the node-major rows of presence masks and per-processor
	// neighbor-set slots, plus the free list of recycled ids.
	CompMasks
	// CompRings covers the buffers of the shard layer's hand-off queues,
	// one per consumer (engine shards, degree tracker, WAL logger). The
	// name predates the channels and stays, since dashboards read it.
	CompRings
	// CompBatches covers the pooled ingest batch free lists.
	CompBatches
	// CompWALBuffers covers the WAL group-commit encode buffer.
	CompWALBuffers
	// CompWALSegments covers bytes in live log segments on the backend —
	// disk, not memory; excluded from MemoryTotal.
	CompWALSegments
	// CompViews covers the currently published query view (its merged
	// class-sum tables, degree counters and top-K ranking).
	CompViews
	// NumComponents is the number of accounted components.
	NumComponents
)

var componentNames = [NumComponents]string{
	"adjacency",
	"counters",
	"degrees",
	"masks",
	"rings",
	"batches",
	"wal_buffers",
	"wal_segments",
	"views",
}

// String returns the component's stable metric-label name.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return "unknown"
	}
	return componentNames[c]
}

// Accountant is the per-component byte ledger. All methods are safe for
// concurrent use and are plain relaxed atomics — no locks, no false
// sharing concerns at the accounting rate (a few adds per batch at
// most). A nil *Accountant is valid and records nothing, so its holders
// call it without guards.
type Accountant struct {
	bytes [NumComponents]atomic.Int64
}

// New returns an empty ledger.
func New() *Accountant { return new(Accountant) }

// Add moves component c's ledger entry by delta bytes (negative frees).
// Nil-safe.
func (a *Accountant) Add(c Component, delta int64) {
	if a == nil || delta == 0 {
		return
	}
	a.bytes[c].Add(delta)
}

// Bytes returns component c's current ledger entry. Nil-safe.
func (a *Accountant) Bytes(c Component) int64 {
	if a == nil {
		return 0
	}
	return a.bytes[c].Load()
}

// MemoryTotal returns the sum over process-memory components only:
// everything except CompWALSegments, which counts bytes on the log
// backend (disk). The controller's budget pressure is computed against
// this value — spilling more sampling state would not relieve disk.
// Nil-safe.
func (a *Accountant) MemoryTotal() int64 {
	if a == nil {
		return 0
	}
	var t int64
	for i := range a.bytes {
		if Component(i) == CompWALSegments {
			continue
		}
		t += a.bytes[i].Load()
	}
	return t
}

// Snapshot returns a point-in-time copy of the ledger, indexed by
// Component. The copy is not barrier-consistent across components (each
// entry is an independent atomic load), which is fine for its consumers:
// metrics scrapes and the controller's thresholds. Nil-safe (zero
// snapshot).
func (a *Accountant) Snapshot() [NumComponents]int64 {
	var s [NumComponents]int64
	if a == nil {
		return s
	}
	for i := range a.bytes {
		s[i] = a.bytes[i].Load()
	}
	return s
}
