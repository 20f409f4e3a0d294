package graph

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"
)

// walkedBytes recomputes s.Bytes() the slow way, walking every live
// table instead of reading the store's running slot total.
func walkedBytes(s *NeighborSets) int64 {
	b := int64(cap(s.sets))*nsetBytes + int64(cap(s.freed))*4 +
		int64(cap(s.side.tables))*sideEntryBytes + int64(cap(s.side.free))*4
	for _, t := range s.side.tables {
		b += int64(len(t)) * nodeIDBytes
	}
	return b
}

// TestAdjacencyLedgerMatchesFootprint drives a seeded churn through every
// capacity transition of the neighbor-set store — arena growth, a set's
// first table, table growth, releases that free arena slots and
// side-store entries, and slot and entry reuse — and after every step
// requires NeighborSets.Bytes, which reads the running total of table
// slots, to equal the bytes recomputed by walking every live table. A
// transition that misses the total (or counts one twice) shows up as a
// drift at the step that caused it; the byte ledger moves to these bytes
// (see core.Engine.Footprint).
func TestAdjacencyLedgerMatchesFootprint(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	rng := rand.New(rand.NewPCG(5, 11))
	a := NewAdjacency()
	const hubs, leaves = 4, 3000
	pick := func() NodeID {
		// A quarter of the endpoints land on a hub, so hub sets move to
		// a table and grow it while most leaves stay inline.
		if rng.IntN(4) == 0 {
			return NodeID(rng.IntN(hubs))
		}
		return NodeID(hubs + rng.IntN(leaves))
	}
	var live []Edge
	// A hub this large holds a table grown well past its first size.
	const hubDeg = 128
	recycled, grown := false, false
	for i := 0; i < steps; i++ {
		// Alternate growth and teardown phases, so table sets drain to
		// zero and get rebuilt over recycled storage.
		addPerMille := 700
		if i/20_000%2 == 1 {
			addPerMille = 300
		}
		if rng.IntN(1000) < addPerMille {
			if u, v := pick(), pick(); a.Add(u, v) {
				live = append(live, Edge{U: u, V: v})
			}
		} else if len(live) > 0 {
			// Remove a live edge: leaves hit degree zero and release
			// their arena slot (and side-store entry, if they had one),
			// which the next new node recycles.
			j := rng.IntN(len(live))
			e := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if !a.Remove(e.U, e.V) {
				t.Fatalf("step %d: Remove(%d,%d) of a live edge = false", i, e.U, e.V)
			}
		}
		if got, want := a.sets.Bytes(), walkedBytes(&a.sets); got != want {
			t.Fatalf("step %d: neighbor sets report %d bytes, a walk over their tables %d", i, got, want)
		}
		recycled = recycled || len(a.sets.side.free) > 0
		grown = grown || a.Degree(0) > hubDeg
	}
	if a.Edges() != len(live) {
		t.Fatalf("Edges() = %d, want %d", a.Edges(), len(live))
	}
	if !recycled || !grown {
		t.Fatalf("churn missed a transition: side-store entry recycled %v, hub table grown %v", recycled, grown)
	}
}

// TestNsetLayout pins the arena entry at 32 bytes with no pointer-bearing
// field anywhere inside it. A pointer in nset would put the whole arena
// back on the garbage collector's scan list; a wider entry would undo the
// per-node saving. Out-of-line storage belongs in the side store.
func TestNsetLayout(t *testing.T) {
	if got := unsafe.Sizeof(nset{}); got != 32 {
		t.Errorf("unsafe.Sizeof(nset{}) = %d, want 32", got)
	}
	if path, ok := pointerFree(reflect.TypeOf(nset{}), "nset"); !ok {
		t.Errorf("%s holds a pointer; keep the arena entry pointer-free", path)
	}
}

// pointerFree reports whether values of t contain no pointers, naming the
// first offending field path when they do.
func pointerFree(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	}
	return path + " (" + t.String() + ")", false
}
