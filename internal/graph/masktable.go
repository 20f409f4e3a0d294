package graph

// MaskTable maps a NodeID to a 64-bit presence bitmask (bit i set by
// Or(u, 1<<i)), 0 for a node never set. The engine keeps its presence
// masks in its node dictionary's rows; this wrapper over NodeTable stays
// only for the benchmark harness's traced replay, which times its
// lookups. Not safe for concurrent use.
type MaskTable struct{ t NodeTable[uint64] }

// NewMaskTable returns an empty mask table.
func NewMaskTable() *MaskTable { return &MaskTable{} }

// Get returns u's presence mask, 0 if u is on no processor.
//
//rept:hotpath
func (m *MaskTable) Get(u NodeID) uint64 { return m.t.Get(u) }

// Or sets bit into u's mask, inserting u if absent.
//
//rept:hotpath
func (m *MaskTable) Or(u NodeID, bit uint64) { *m.t.ref(u) |= bit }
