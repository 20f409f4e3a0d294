package graph

import (
	"unsafe"

	"rept/internal/mem"
)

// maskEntryBytes is the accounted size of one mask-table slot.
const maskEntryBytes = int64(unsafe.Sizeof(maskEntry{}))

// MaskTable maps a NodeID to a 64-bit processor-presence bitmask: bit i
// is set while logical processor i's sampled adjacency contains the
// node. The engine's walk reads it for every event, insertion or
// deletion, to skip processors that provably cannot close a triangle on
// the edge (a processor whose adjacency lacks an endpoint has an empty
// intersection, and only the storing processor can sample, remove or
// phantom-track the edge). Visiting every processor instead is where most
// of the per-event cost would go.
//
// Storage mirrors the adjacency node index: open addressing with linear
// probing over mix32, grown at 50% load, entries removed by backward
// shift. A mask of 0 means "present on no processor", which is exactly
// "absent", so 0 doubles as the empty-slot sentinel and AndNot can drop
// entries the moment their last bit clears.
//
// The zero value is not usable; call NewMaskTable. Not safe for
// concurrent use — it lives inside a single engine, guarded by the
// engine's own synchronization.
type MaskTable struct {
	ents []maskEntry
	n    int
	ac   *mem.Accountant
}

type maskEntry struct {
	key  NodeID
	mask uint64 // 0 = empty slot
}

const maskMinSize = 16

// NewMaskTable returns an empty mask table.
func NewMaskTable() *MaskTable {
	return &MaskTable{ents: make([]maskEntry, maskMinSize)}
}

// SetAccountant attaches the byte ledger, immediately accounting the
// capacity that already exists; later growth reports its own deltas.
func (t *MaskTable) SetAccountant(ac *mem.Accountant) {
	t.ac = ac
	ac.Add(mem.CompMasks, int64(len(t.ents))*maskEntryBytes)
}

// Get returns u's presence mask, 0 if u is on no processor.
//
//rept:hotpath
func (t *MaskTable) Get(u NodeID) uint64 {
	mask := uint32(len(t.ents) - 1)
	for i := mix32(uint32(u)) & mask; ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.mask == 0 {
			return 0
		}
		if e.key == u {
			return e.mask
		}
	}
}

// Or sets bit into u's mask, inserting u if absent. Growth lives in a
// separate cold function; the steady-state body allocates nothing.
//
//rept:hotpath
func (t *MaskTable) Or(u NodeID, bit uint64) {
	mask := uint32(len(t.ents) - 1)
	for i := mix32(uint32(u)) & mask; ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.mask == 0 {
			e.key = u
			e.mask = bit
			t.n++
			if t.n >= len(t.ents)/2 {
				t.grow()
			}
			return
		}
		if e.key == u {
			e.mask |= bit
			return
		}
	}
}

// AndNot clears bit from u's mask, deleting the entry (backward-shift)
// when the mask drops to 0. Clearing a bit of an absent node is a no-op.
//
//rept:hotpath
func (t *MaskTable) AndNot(u NodeID, bit uint64) {
	mask := uint32(len(t.ents) - 1)
	i := mix32(uint32(u)) & mask
	for {
		e := &t.ents[i]
		if e.mask == 0 {
			return
		}
		if e.key == u {
			e.mask &^= bit
			if e.mask != 0 {
				return
			}
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift deletion keeps probe chains dense without
	// tombstones: pull back every displaced entry that probed past i
	// (same walk as nodeIndex.del).
	j := i
	for {
		j = (j + 1) & mask
		if t.ents[j].mask == 0 {
			break
		}
		home := mix32(uint32(t.ents[j].key)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i] = maskEntry{}
	t.n--
}

// grow doubles the table and re-inserts every live entry.
func (t *MaskTable) grow() {
	old := t.ents
	t.ac.Add(mem.CompMasks, int64(len(old))*maskEntryBytes)
	t.ents = make([]maskEntry, len(old)*2)
	mask := uint32(len(t.ents) - 1)
	for _, e := range old {
		if e.mask == 0 {
			continue
		}
		for i := mix32(uint32(e.key)) & mask; ; i = (i + 1) & mask {
			if t.ents[i].mask == 0 {
				t.ents[i] = e
				break
			}
		}
	}
}
