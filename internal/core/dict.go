package core

import "rept/internal/graph"

// nodeDict is the engine's node dictionary: one graph.NodeTable from
// NodeID to a dense id, probed once per endpoint per event, beside one
// node-major row per id. Row id is rows[id*w : (id+1)*w], in three parts:
//
//   - blocks mask words: bit j of word b is set while processor 64b+j
//     holds the node;
//   - ⌈C/4⌉ signature words of four 16-bit signatures: processor i's
//     starts at bit 16·(i%4) of word i/4 and is the OR of graph.SigBit
//     over the node's neighbors in i's sample, 0 where i does not hold
//     the node;
//   - ⌈C/2⌉ slot words of two 32-bit slots: processor i's starts at bit
//     32·(i%2) of word i/2 and is the node's neighbor-set slot on i, 0
//     where i does not hold the node.
//
// At 20 processors a row is 16 words (128 bytes), and the masks plus all
// 20 signatures share its first cache line. The processors one event
// visits thus read the same few cache lines per endpoint instead of each
// probing an index of its own, and a visit whose two signatures share no
// bit — most of them — reads no slot and no neighbor set at all.
//
// A node has an id exactly while some processor's sample holds it: the
// first processor to sample an edge at the node interns it, and the id
// goes back to a free list when the node leaves the last one. Id 0 is
// never handed out and its row stays zero, so an endpoint no processor
// holds reads empty masks, signatures and slots without a branch. Ids
// never leave the engine: snapshots carry NodeIDs, and the signatures are
// rebuilt by the place calls that load a sample.
//
// Rows are dense — every node pays a signature and a slot on every
// processor — which is cheapest when each processor holds a large share
// of the engine's nodes (M=10 with 20 processors: 72 %) and costs memory
// on very sparse layouts (large M, few processors per group).
type nodeDict struct {
	index   graph.NodeTable[int32]
	rows    []uint64
	free    []int32
	blocks  int // mask words per row: one per 64 processors
	slotOff int // offset of the slot words in a row
	w       int // words per row
	ver     version
}

// version counts the dictionary changes that can make a looked-up id
// stale: interns, the nodes given an id, and leaves, the nodes whose id
// went back to the free list.
type version struct{ interns, leaves uint64 }

// endpoint is one end of an edge being applied: the node and its
// dictionary id, 0 while no processor holds the node. The walk looks the
// id up once (or takes it from staging, see refresh) and every processor
// it visits keeps it current.
type endpoint struct {
	node graph.NodeID
	id   int32
}

func newNodeDict(c int) nodeDict {
	blocks := (c + maskBlock - 1) / maskBlock
	slotOff := blocks + (c+3)/4
	d := nodeDict{blocks: blocks, slotOff: slotOff, w: slotOff + (c+1)/2}
	d.addRow() // id 0
	return d
}

// refresh re-probes x's id when the dictionary may have changed it since
// it was looked up at version at: an id of 0 goes stale once a node is
// interned (x may be that node), any other id once a node leaves (x may
// have left, and its id may since have gone to another node). The probe
// hits the cache the first lookup filled.
//
//rept:hotpath
func (d *nodeDict) refresh(x *endpoint, at version) {
	if x.id == 0 && d.ver.interns != at.interns || x.id != 0 && d.ver.leaves != at.leaves {
		x.id = d.index.Get(x.node)
	}
}

// maskRow returns node id's presence masks, one word per 64 processors.
//
//rept:hotpath
func (d *nodeDict) maskRow(id int32) []uint64 {
	off := int(id) * d.w
	return d.rows[off : off+d.blocks]
}

// sigWord returns the index of the row word holding node id's signature
// on processor i, and the signature's shift within it.
//
//rept:hotpath
func (d *nodeDict) sigWord(id int32, i int) (int, uint) {
	return int(id)*d.w + d.blocks + i>>2, uint(i&3) * 16
}

// sig returns node id's signature on processor i, 0 if i does not hold
// it.
//
//rept:hotpath
func (d *nodeDict) sig(id int32, i int) uint16 {
	k, sh := d.sigWord(id, i)
	return uint16(d.rows[k] >> sh)
}

// setSig stores x as node id's signature on processor i.
//
//rept:hotpath
func (d *nodeDict) setSig(id int32, i int, x uint16) {
	k, sh := d.sigWord(id, i)
	d.rows[k] = d.rows[k]&^(0xffff<<sh) | uint64(x)<<sh
}

// addSig ORs bit into node id's signature on processor i.
//
//rept:hotpath
func (d *nodeDict) addSig(id int32, i int, bit uint16) {
	k, sh := d.sigWord(id, i)
	d.rows[k] |= uint64(bit) << sh
}

// slotWord returns the index of the row word holding node id's slot on
// processor i, and the slot's shift within it.
//
//rept:hotpath
func (d *nodeDict) slotWord(id int32, i int) (int, uint) {
	return int(id)*d.w + d.slotOff + i>>1, uint(i&1) * 32
}

// slot returns node id's neighbor-set slot on processor i, 0 if i does
// not hold it.
//
//rept:hotpath
func (d *nodeDict) slot(id int32, i int) int32 {
	k, sh := d.slotWord(id, i)
	return int32(uint32(d.rows[k] >> sh))
}

// setSlot stores s as node id's slot on processor i.
func (d *nodeDict) setSlot(id int32, i int, s int32) {
	k, sh := d.slotWord(id, i)
	d.rows[k] = d.rows[k]&^(0xffffffff<<sh) | uint64(uint32(s))<<sh
}

// place adds the edge {u, v} to p's sample, entering each endpoint p does
// not hold yet and adding each endpoint's bit to the other's signature,
// and reports false when p already holds the edge. u and v must differ.
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
	d.addSig(u.id, p.index, graph.SigBit(v.node))
	d.addSig(v.id, p.index, graph.SigBit(u.node))
	p.edges++
	return true
}

// evict removes the edge {u, v} from p's sample and brings each
// endpoint's signature back to the OR over its remaining neighbors; an
// endpoint left with no neighbor there leaves p. It reports false when p
// does not hold the edge.
//
//rept:hotpath
func (d *nodeDict) evict(p *proc, u, v *endpoint) bool {
	su, sv := d.slot(u.id, p.index), d.slot(v.id, p.index)
	if su == 0 || sv == 0 || !p.sets.Remove(su, u.node, v.node) {
		return false
	}
	p.sets.Remove(sv, v.node, u.node)
	p.edges--
	d.shrunk(p, u, su)
	d.shrunk(p, v, sv)
	return true
}

// shrunk follows a removal from x's set s on p: x leaves p when s is
// empty, else its signature is recomputed from s, which the removal just
// read.
//
//rept:hotpath
func (d *nodeDict) shrunk(p *proc, x *endpoint, s int32) {
	if p.sets.Deg(s) == 0 {
		d.leave(p, x, s)
		return
	}
	d.setSig(x.id, p.index, p.sets.Sig(s, x.node))
}

// enter gives x a fresh set on p, interning x first if no processor held
// it, and returns the set's slot.
func (d *nodeDict) enter(p *proc, x *endpoint) int32 {
	if x.id == 0 {
		x.id = d.intern(x.node)
	}
	s := p.sets.New()
	d.setSlot(x.id, p.index, s)
	d.rows[int(x.id)*d.w+p.index/maskBlock] |= p.maskBit
	return s
}

// leave releases x's empty set s on p, zeroing x's slot and signature
// there; when p was the last processor holding x, x's now all-zero row
// returns to the free list and x.id becomes 0.
func (d *nodeDict) leave(p *proc, x *endpoint, s int32) {
	p.sets.Release(s)
	d.setSlot(x.id, p.index, 0)
	d.setSig(x.id, p.index, 0)
	row := d.maskRow(x.id)
	row[p.index/maskBlock] &^= p.maskBit
	for _, m := range row {
		if m != 0 {
			return
		}
	}
	d.index.Del(x.node)
	d.free = append(d.free, x.id)
	x.id = 0
	d.ver.leaves++
}

// intern gives u, which must be absent, an id with an all-zero row: a
// recycled one when the free list has one, else a new row.
func (d *nodeDict) intern(u graph.NodeID) int32 {
	var id int32
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = int32(len(d.rows) / d.w)
		d.addRow()
	}
	d.index.Put(u, id)
	d.ver.interns++
	return id
}

// addRow appends one all-zero row.
func (d *nodeDict) addRow() { d.rows = append(d.rows, make([]uint64, d.w)...) }

// bytes returns the dictionary's backing bytes recomputed from
// capacities: the index, the rows and the free list.
func (d *nodeDict) bytes() int64 {
	return d.index.Bytes() + int64(cap(d.rows))*8 + int64(cap(d.free))*4
}

// reset empties the dictionary and releases its storage, leaving only
// the zero row of id 0.
func (d *nodeDict) reset() {
	d.index.Reset()
	d.rows, d.free = nil, nil
	d.addRow()
}
