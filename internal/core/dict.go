package core

import (
	"slices"
	"unsafe"

	"rept/internal/graph"
	"rept/internal/mem"
)

// nodeDict is the engine's node dictionary: one graph.NodeTable from
// NodeID to a dense id, probed once per endpoint per event, beside
// node-major rows indexed by id. A node's row holds its presence masks —
// masks[id*blocks+b] has bit j set while processor 64b+j holds the node
// — and its neighbor-set slot on every processor, slots[id*c+i], 0 where
// processor i does not hold it. The processors one event visits thus read
// the same one or two cache lines per endpoint instead of each probing an
// index of its own.
//
// A node has an id exactly while some processor's sample holds it: the
// first processor to sample an edge at the node interns it, and the id
// goes back to a free list when the node leaves the last one. Id 0 is
// never handed out and its row stays zero, so an endpoint no processor
// holds reads empty masks and zero slots without a branch. Ids never
// leave the engine: snapshots carry NodeIDs.
//
// Rows are dense — every node pays a slot word on every processor — which
// is cheapest when each processor holds a large share of the engine's
// nodes (M=10 with 20 processors: 72 %) and costs memory on very sparse
// layouts (large M, few processors per group). Every byte is charged to
// the ledger's masks component at capacity changes only.
type nodeDict struct {
	index  graph.NodeTable[int32]
	masks  []uint64
	slots  []int32
	free   []int32
	blocks int // mask words per row: one per 64 processors
	c      int // slot words per row: one per processor
	ac     *mem.Accountant
}

// endpoint is one end of an edge being applied: the node and its
// dictionary id, 0 while no processor holds the node. The walk looks the
// id up once and every processor it visits keeps it current.
type endpoint struct {
	node graph.NodeID
	id   int32
}

func newNodeDict(c int, ac *mem.Accountant) nodeDict {
	d := nodeDict{blocks: (c + maskBlock - 1) / maskBlock, c: c, ac: ac}
	d.index.SetAccountant(ac, mem.CompMasks)
	d.addRow() // id 0
	return d
}

// maskRow returns node id's presence masks, one word per 64 processors.
//
//rept:hotpath
func (d *nodeDict) maskRow(id int32) []uint64 {
	off := int(id) * d.blocks
	return d.masks[off : off+d.blocks]
}

// slot returns node id's neighbor-set slot on processor i, 0 if i does
// not hold it.
//
//rept:hotpath
func (d *nodeDict) slot(id int32, i int) int32 { return d.slots[int(id)*d.c+i] }

// place adds the edge {u, v} to p's sample, entering each endpoint p does
// not hold yet, and reports false when p already holds the edge. u and v
// must differ.
//
//rept:hotpath
func (d *nodeDict) place(p *proc, u, v *endpoint) bool {
	su := d.slot(u.id, p.index)
	if su == 0 {
		su = d.enter(p, u)
	}
	if !p.sets.Add(su, u.node, v.node) {
		return false
	}
	sv := d.slot(v.id, p.index)
	if sv == 0 {
		sv = d.enter(p, v)
	}
	p.sets.Add(sv, v.node, u.node)
	p.edges++
	return true
}

// evict removes the edge {u, v} from p's sample, and each endpoint left
// with no neighbor there leaves p. It reports false when p does not hold
// the edge.
//
//rept:hotpath
func (d *nodeDict) evict(p *proc, u, v *endpoint) bool {
	su, sv := d.slot(u.id, p.index), d.slot(v.id, p.index)
	if su == 0 || sv == 0 || !p.sets.Remove(su, u.node, v.node) {
		return false
	}
	p.sets.Remove(sv, v.node, u.node)
	p.edges--
	if p.sets.Deg(su) == 0 {
		d.leave(p, u, su)
	}
	if p.sets.Deg(sv) == 0 {
		d.leave(p, v, sv)
	}
	return true
}

// enter gives x a fresh set on p, interning x first if no processor held
// it, and returns the set's slot.
func (d *nodeDict) enter(p *proc, x *endpoint) int32 {
	if x.id == 0 {
		x.id = d.intern(x.node)
	}
	s := p.sets.New()
	d.slots[int(x.id)*d.c+p.index] = s
	d.masks[int(x.id)*d.blocks+p.index/maskBlock] |= p.maskBit
	return s
}

// leave releases x's empty set s on p; when p was the last processor
// holding x, x's id returns to the free list and x.id becomes 0.
func (d *nodeDict) leave(p *proc, x *endpoint, s int32) {
	p.sets.Release(s)
	d.slots[int(x.id)*d.c+p.index] = 0
	row := d.maskRow(x.id)
	row[p.index/maskBlock] &^= p.maskBit
	for _, m := range row {
		if m != 0 {
			return
		}
	}
	d.index.Del(x.node)
	n := len(d.free)
	growCharged(&d.free, 1, d.ac)
	d.free[n] = x.id
	x.id = 0
}

// intern gives u, which must be absent, an id with an all-zero row: a
// recycled one when the free list has one, else a new row.
func (d *nodeDict) intern(u graph.NodeID) int32 {
	var id int32
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = int32(len(d.slots) / d.c)
		d.addRow()
	}
	d.index.Put(u, id)
	return id
}

// addRow appends one all-zero row.
func (d *nodeDict) addRow() {
	growCharged(&d.masks, d.blocks, d.ac)
	growCharged(&d.slots, d.c, d.ac)
}

// growCharged extends *sl by n zero elements, charging the ledger's masks
// component for the capacity the growth adds, if any.
func growCharged[T int32 | uint64](sl *[]T, n int, ac *mem.Accountant) {
	l, c := len(*sl), cap(*sl)
	*sl = slices.Grow(*sl, n)[:l+n]
	clear((*sl)[l:])
	if grown := cap(*sl) - c; grown > 0 {
		var zero T
		ac.Add(mem.CompMasks, int64(grown)*int64(unsafe.Sizeof(zero)))
	}
}

// bytes returns the dictionary's backing bytes recomputed from
// capacities — exactly what its charge sites have put on the ledger.
func (d *nodeDict) bytes() int64 { return d.index.Bytes() + d.arrayBytes() }

// arrayBytes returns the bytes of the rows and the free list.
func (d *nodeDict) arrayBytes() int64 {
	return int64(cap(d.masks))*8 + int64(cap(d.slots)+cap(d.free))*4
}

// reset empties the dictionary and releases its storage, crediting the
// ledger, leaving only the zero row of id 0.
func (d *nodeDict) reset() {
	d.index.Reset()
	d.ac.Add(mem.CompMasks, -d.arrayBytes())
	d.masks, d.slots, d.free = nil, nil, nil
	d.addRow()
}
