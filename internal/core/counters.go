package core

import (
	"math"

	"rept/internal/graph"
	"rept/internal/mem"
)

// ctab is the per-processor edge→counter table behind proc.tcnt: a
// graph.EdgeTable from canonical 64-bit edge keys to the signed per-edge
// closing counters τ⁽ⁱ⁾_g of Algorithm 2. Entries exist for exactly the
// processor's sampled edges, so the table's footprint is the sampled-set
// size in two flat arrays, 12 bytes per slot. Deletion shifts entries
// back instead of leaving tombstones, so churn (delete + re-insert of the
// same keys) never grows the table, and the ledger is charged under
// mem.CompCounters only when the table grows.
//
// Counter arithmetic saturates instead of wrapping: a hot edge driven to
// ±2³¹ clamps and increments sat, surfaced as Engine.EtaSaturations — a
// wrapped counter would silently corrupt η̂, a clamped one bounds the
// error and reports it.
type ctab struct {
	tab graph.EdgeTable[satcount]
	sat uint64
}

// satcount is a per-edge closing counter that clamps at the int32 bounds
// instead of wrapping (a wrapped counter would silently corrupt η̂; a
// clamped one bounds the error and surfaces it via Engine.EtaSaturations).
// All arithmetic on it goes through the //rept:sathelper method bump;
// satarith reports any raw additive operator elsewhere.
//
//rept:satcounter
type satcount int32

func newCtab(ac *mem.Accountant) *ctab {
	t := &ctab{}
	t.tab.SetAccountant(ac, mem.CompCounters)
	return t
}

// len returns the number of entries.
func (t *ctab) len() int { return t.tab.Len() }

// get returns the counter at k (0 if absent).
//
//rept:hotpath
func (t *ctab) get(k uint64) int32 { return int32(t.tab.Get(k)) }

// bump adds delta to the counter at k with saturating int32 arithmetic,
// inserting a zero entry if absent. It returns the previous and the
// stored value; a clamp increments sat.
//
//rept:hotpath
//rept:sathelper
func (t *ctab) bump(k uint64, delta int32) (old, cur int32) {
	c := t.tab.Ref(k)
	old = int32(*c)
	wide := int64(old) + int64(delta)
	switch {
	case wide > math.MaxInt32:
		cur = math.MaxInt32
		t.sat++
	case wide < math.MinInt32:
		cur = math.MinInt32
		t.sat++
	default:
		cur = int32(wide)
	}
	*c = satcount(cur)
	return old, cur
}

// insert enters k, which must be absent, with a zero counter: a newly
// sampled edge has closed no semi-triangle as a wedge edge yet.
//
//rept:hotpath
func (t *ctab) insert(k uint64) { t.tab.Put(k, 0) }

// del removes k's entry (if present).
//
//rept:hotpath
func (t *ctab) del(k uint64) { t.tab.Del(k) }

// toMap exports the entries as a plain map, the snapshot path.
func (t *ctab) toMap() map[uint64]int32 {
	out := make(map[uint64]int32, t.tab.Len())
	t.tab.Each(func(k uint64, c satcount) { out[k] = int32(c) })
	return out
}

// load sets the counters in m (the snapshot-restore path).
func (t *ctab) load(m map[uint64]int32) {
	for k, v := range m {
		t.tab.Put(k, satcount(v))
	}
}
