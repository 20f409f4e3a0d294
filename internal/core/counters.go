package core

import (
	"math"

	"rept/internal/hashing"
	"rept/internal/mem"
)

// ctab is the per-processor edge→counter table behind proc.tcnt: an open-
// addressing map from canonical 64-bit edge keys to the signed per-edge
// closing counters τ⁽ⁱ⁾_g of Algorithm 2. Entries exist for exactly the
// processor's sampled edges, so the table's footprint is the sampled-set
// size with two flat arrays — no per-bucket pointers, no map header
// traffic on the per-event hot path.
//
// Key 0 is Key(0, 0), a self-loop no caller ever stores, and serves as
// the empty sentinel; ^uint64(0) is Key(max, max), likewise a self-loop,
// and serves as the tombstone left by fully-dynamic deletions. Probe
// chains skip tombstones; insertion reuses the first tombstone on its
// chain, so steady-state churn (delete + re-insert of the same keys)
// recycles slots without growing the table. When tombstones still
// accumulate past the load ceiling the table is rehashed into a retained
// spare buffer (ping-pong), keeping the steady state allocation-free.
//
// Counter arithmetic saturates instead of wrapping: a hot edge driven to
// ±2³¹ clamps and increments sat, surfaced as Engine.EtaSaturations — a
// wrapped counter would silently corrupt η̂, a clamped one bounds the
// error and reports it.
type ctab struct {
	keys []uint64
	vals []satcount
	// spareK/spareV are the retained ping-pong buffers for same-capacity
	// tombstone purges.
	spareK []uint64
	spareV []satcount
	live   int // entries with a real key
	used   int // live + tombstones
	sat    uint64
	// ac/acBytes reconcile the table's footprint (main plus spare buffers)
	// against the byte ledger at init and rehash — the only moments
	// capacity changes — so the per-event paths never touch the ledger.
	ac      *mem.Accountant
	acBytes int64
}

// satcount is a per-edge closing counter that clamps at the int32 bounds
// instead of wrapping (a wrapped counter would silently corrupt η̂; a
// clamped one bounds the error and surfaces it via Engine.EtaSaturations).
// All arithmetic on it goes through the //rept:sathelper method bump;
// satarith reports any raw additive operator elsewhere.
//
//rept:satcounter
type satcount int32

const (
	ctabEmpty    = uint64(0)
	ctabTomb     = ^uint64(0)
	ctabMinSize  = 16
	ctabMaxInt32 = int32(math.MaxInt32)
	ctabMinInt32 = int32(math.MinInt32)
)

func newCtab(ac *mem.Accountant) *ctab { return &ctab{ac: ac} }

// ctabSlotBytes is the accounted size of one bucket across the parallel
// key (uint64) and value (satcount) arrays.
const ctabSlotBytes = 12

// reaccount reconciles the ledger with the table's current capacity,
// called only from the cold init/rehash transitions.
func (t *ctab) reaccount() {
	b := int64(len(t.keys)+len(t.spareK)) * ctabSlotBytes
	t.ac.Add(mem.CompCounters, b-t.acBytes)
	t.acBytes = b
}

// len returns the number of live entries.
func (t *ctab) len() int { return t.live }

// get returns the counter at k (0 if absent).
//
//rept:hotpath
func (t *ctab) get(k uint64) int32 {
	if t.live == 0 {
		return 0
	}
	mask := uint64(len(t.keys) - 1)
	for i := hashing.Mix64(k) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return int32(t.vals[i])
		case ctabEmpty:
			return 0
		}
	}
}

// init allocates the initial buckets, the one-time cold transition out of
// slot's probe loop (kept separate so the //rept:hotpath gate sees slot
// itself allocation-free).
func (t *ctab) init() {
	t.keys = make([]uint64, ctabMinSize)
	t.vals = make([]satcount, ctabMinSize)
	t.reaccount()
}

// slot returns the index holding k, inserting a zero-valued entry
// (reusing a tombstone when the probe chain has one) if absent.
//
//rept:hotpath
func (t *ctab) slot(k uint64) int {
	if len(t.keys) == 0 {
		t.init()
	} else if t.used >= len(t.keys)*3/4 {
		t.rehash()
	}
	mask := uint64(len(t.keys) - 1)
	tomb := -1
	for i := hashing.Mix64(k) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return int(i)
		case ctabTomb:
			if tomb < 0 {
				tomb = int(i)
			}
		case ctabEmpty:
			j := int(i)
			if tomb >= 0 {
				j = tomb // reuse the tombstone; used is unchanged
			} else {
				t.used++
			}
			t.keys[j] = k
			t.vals[j] = 0
			t.live++
			return j
		}
	}
}

// bump adds delta to the counter at k with saturating int32 arithmetic,
// inserting a zero entry if absent. It returns the previous and the
// stored value; a clamp increments sat.
//
//rept:hotpath
//rept:sathelper
func (t *ctab) bump(k uint64, delta int32) (old, cur int32) {
	i := t.slot(k)
	old = int32(t.vals[i])
	wide := int64(old) + int64(delta)
	switch {
	case wide > int64(ctabMaxInt32):
		cur = ctabMaxInt32
		t.sat++
	case wide < int64(ctabMinInt32):
		cur = ctabMinInt32
		t.sat++
	default:
		cur = int32(wide)
	}
	t.vals[i] = satcount(cur)
	return old, cur
}

// insert enters k, which must be absent, with a zero counter: a newly
// sampled edge has closed no semi-triangle as a wedge edge yet.
//
//rept:hotpath
func (t *ctab) insert(k uint64) { t.vals[t.slot(k)] = 0 }

// del removes k's entry (if present), leaving a tombstone.
//
//rept:hotpath
func (t *ctab) del(k uint64) {
	if t.live == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	for i := hashing.Mix64(k) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			t.keys[i] = ctabTomb
			t.live--
			return
		case ctabEmpty:
			return
		}
	}
}

// rehash moves the live entries into a clean table: double the capacity
// when genuinely full, or the retained same-size spare when tombstones
// are the problem (the old buffers become the next spare, so steady-state
// purges allocate nothing).
func (t *ctab) rehash() {
	size := len(t.keys)
	if t.live >= size/2 {
		size *= 2
	}
	oldK, oldV := t.keys, t.vals
	if size == len(oldK) && len(t.spareK) == size {
		t.keys, t.vals = t.spareK, t.spareV
		for i := range t.keys {
			t.keys[i] = ctabEmpty
		}
	} else {
		t.keys = make([]uint64, size)
		t.vals = make([]satcount, size)
	}
	t.spareK, t.spareV = oldK, oldV
	t.live, t.used = 0, 0
	mask := uint64(size - 1)
	for i, k := range oldK {
		if k == ctabEmpty || k == ctabTomb {
			continue
		}
		j := hashing.Mix64(k) & mask
		for t.keys[j] != ctabEmpty {
			j = (j + 1) & mask
		}
		t.keys[j] = k
		t.vals[j] = oldV[i]
		t.live++
		t.used++
	}
	t.reaccount()
}

// toMap exports the live entries as a plain map, the snapshot path.
func (t *ctab) toMap() map[uint64]int32 {
	out := make(map[uint64]int32, t.live)
	for i, k := range t.keys {
		if k != ctabEmpty && k != ctabTomb {
			out[k] = int32(t.vals[i])
		}
	}
	return out
}

// load replaces the table contents with m (the snapshot-restore path).
func (t *ctab) load(m map[uint64]int32) {
	for k, v := range m {
		i := t.slot(k)
		t.vals[i] = satcount(v)
	}
}
