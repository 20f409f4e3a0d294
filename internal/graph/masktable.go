package graph

// MaskTable maps a NodeID to a 64-bit presence bitmask (bit i set by
// Or(u, 1<<i)). The engine keeps its presence masks in its node
// dictionary's rows; the table stays only for the benchmark harness's
// traced replay, which times its lookups.
//
// Storage is open addressing with linear probing over mix32, grown at 50%
// load. A mask of 0 means "absent", so 0 doubles as the empty-slot
// sentinel.
//
// The zero value is not usable; call NewMaskTable. Not safe for
// concurrent use.
type MaskTable struct {
	ents []maskEntry
	n    int
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

// grow doubles the table and re-inserts every live entry.
func (t *MaskTable) grow() {
	old := t.ents
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
