package graph

import (
	"maps"
	"math/rand/v2"
	"reflect"
	"testing"
)

// tableContents exports t as a map for comparison against a model.
func tableContents[V nodeValue](t *NodeTable[V]) map[NodeID]V {
	out := make(map[NodeID]V, t.Len())
	t.Each(func(u NodeID, x V) {
		if _, dup := out[u]; dup {
			panic("Each visited a node twice")
		}
		out[u] = x
	})
	return out
}

// TestNodeTableMatchesMap runs nodeTableMatchesMap on every value type
// the table serves, through the operations its users call: the class
// sums' Add and Clear, the node indexes' Put and Del, and MaskTable's Or.
func TestNodeTableMatchesMap(t *testing.T) {
	t.Run("int64/Add", func(t *testing.T) {
		var tab NodeTable[int64]
		nodeTableMatchesMap(t, &tab, func(u NodeID, r uint64, model map[NodeID]int64) {
			d := int64(r%7) - 3
			tab.Add(u, d)
			model[u] += d
		})
	})
	t.Run("int32/Put", func(t *testing.T) {
		var tab NodeTable[int32]
		nodeTableMatchesMap(t, &tab, func(u NodeID, r uint64, model map[NodeID]int32) {
			tab.Put(u, int32(r))
			model[u] = int32(r)
		})
	})
	t.Run("uint64/MaskTable.Or", func(t *testing.T) {
		m := NewMaskTable()
		nodeTableMatchesMap(t, &m.t, func(u NodeID, r uint64, model map[NodeID]uint64) {
			bit := uint64(1) << (r % 64)
			m.Or(u, bit)
			model[u] |= bit
			if got := m.Get(u); got != model[u] {
				t.Fatalf("MaskTable.Get(%d) = %#x, model %#x", u, got, model[u])
			}
		})
	})
}

// nodeTableMatchesMap drives a seeded mix of writes (write applies one to
// the table and the model), deletes, resets, clears and clones — node 0 and the
// maximum NodeID included — against a plain map, and after every step
// requires Get, Has, Len and Each to agree with it.
func nodeTableMatchesMap[V nodeValue](t *testing.T, tab *NodeTable[V], write func(u NodeID, r uint64, model map[NodeID]V)) {
	rng := rand.New(rand.NewPCG(3, 8))
	model := map[NodeID]V{}
	pick := func() NodeID {
		switch rng.IntN(50) {
		case 0:
			return 0
		case 1:
			return ^NodeID(0)
		}
		return NodeID(rng.IntN(4000))
	}
	var clones []*NodeTable[V]
	var cloneModels []map[NodeID]V
	clears := map[bool]int{}
	for step := 0; step < 60_000; step++ {
		switch r := rng.IntN(1000); {
		case r < 700:
			write(pick(), rng.Uint64(), model)
		case r < 990:
			u := pick()
			tab.Del(u)
			delete(model, u)
		case r < 995:
			clones = append(clones, tab.Clone())
			cloneModels = append(cloneModels, maps.Clone(model))
		case r < 998:
			tab.Reset()
			clear(model)
		default:
			// Clear keeps the storage unless an eighth of the slots or
			// fewer held entries.
			before, n, slots := tab.Bytes(), tab.n, len(tab.keys)
			keep := slots <= tableMinSize || 8*n >= slots
			tab.Clear()
			clear(model)
			if keep && tab.Bytes() != before || !keep && tab.Bytes() != 0 {
				t.Fatalf("step %d: Clear of %d entries in %d slots took the footprint %d B → %d B", step, n, slots, before, tab.Bytes())
			}
			clears[keep]++
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, tab.Len(), len(model))
		}
		u := pick()
		if got, want := tab.Get(u), model[u]; got != want {
			t.Fatalf("step %d: Get(%d) = %d, model %d", step, u, got, want)
		}
		if _, want := model[u]; tab.Has(u) != want {
			t.Fatalf("step %d: Has(%d) = %v, model %v", step, u, !want, want)
		}
		if step%997 == 0 && !reflect.DeepEqual(tableContents(tab), model) {
			t.Fatalf("step %d: Each disagrees with the model", step)
		}
	}
	if !reflect.DeepEqual(tableContents(tab), model) {
		t.Fatal("final contents disagree with the model")
	}
	if clears[true] == 0 || clears[false] == 0 {
		t.Fatalf("Clear kept the storage %d times and released it %d times; the schedule missed a case", clears[true], clears[false])
	}
	if len(clones) == 0 {
		t.Fatal("schedule took no clones")
	}
	for i, c := range clones {
		if !reflect.DeepEqual(tableContents(c), cloneModels[i]) {
			t.Fatalf("clone %d changed after later mutations of its source", i)
		}
	}
}

// TestSumTables: the sum of overlapping tables (node 0 and nil sources
// included) holds every node any source holds, with summed values, and
// never aliases a source.
func TestSumTables(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	for trial := 0; trial < 50; trial++ {
		var srcs []*NodeTable[int64]
		want := map[NodeID]int64{}
		for s := rng.IntN(4); s >= 0; s-- {
			if rng.IntN(5) == 0 {
				srcs = append(srcs, nil)
				continue
			}
			tab := &NodeTable[int64]{}
			for n := rng.IntN(3000); n > 0; n-- {
				u, d := NodeID(rng.IntN(5000)), int64(rng.IntN(9)-4)
				tab.Add(u, d)
				want[u] += d
			}
			srcs = append(srcs, tab)
		}
		before := make([]map[NodeID]int64, len(srcs))
		for i, s := range srcs {
			if s != nil {
				before[i] = tableContents(s)
			}
		}
		sum := SumTables(srcs...)
		if got := tableContents(sum); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sum has %d nodes, want %d (or values differ)", trial, len(got), len(want))
		}
		if 4*sum.n > 3*len(sum.keys) {
			t.Fatalf("trial %d: sum holds %d nodes in %d slots, over the 75%% load ceiling", trial, sum.n, len(sum.keys))
		}
		sum.Add(1, 1000)
		for i, s := range srcs {
			if s != nil && !reflect.DeepEqual(tableContents(s), before[i]) {
				t.Fatalf("trial %d: SumTables changed source %d", trial, i)
			}
		}
	}
}

// TestSumTablesSizing: a largest source at its load ceiling keeps its
// capacity when the others add no new node (the result is a plain copy)
// and doubles once when they add a few (the miss count stops early).
func TestSumTablesSizing(t *testing.T) {
	full := &NodeTable[int64]{}
	for u := NodeID(1); len(full.keys) < 1024 || fits(full.n+1, len(full.keys)); u++ {
		full.Add(u, 1)
	}
	shared, fresh := &NodeTable[int64]{}, &NodeTable[int64]{}
	for u := NodeID(1); u <= 10; u++ {
		shared.Add(u, 2)
		fresh.Add(u, 2)
	}
	for u := NodeID(1 << 20); u < 1<<20+6; u++ {
		fresh.Add(u, 3)
	}
	for _, c := range []struct {
		name  string
		other *NodeTable[int64]
		size  int
	}{
		{"shared nodes only", shared, len(full.keys)},
		{"six new nodes", fresh, 2 * len(full.keys)},
	} {
		sum := SumTables(shared, full, c.other)
		if len(sum.keys) != c.size {
			t.Errorf("%s: result has %d slots, want %d", c.name, len(sum.keys), c.size)
		}
		want := tableContents(full)
		for _, s := range []*NodeTable[int64]{shared, c.other} {
			s.Each(func(u NodeID, x int64) { want[u] += x })
		}
		if !reflect.DeepEqual(tableContents(sum), want) {
			t.Errorf("%s: sum contents are wrong", c.name)
		}
	}
}

// FuzzNodeTable decodes a schedule of Add, Put, Del, Reset and Clear operations
// from the input — node 0 and the maximum NodeID reachable — applies it
// to a NodeTable and a Go map, and requires the two to agree after every
// operation.
func FuzzNodeTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 7, 2, 0, 1, 0})
	f.Add([]byte{0, 255, 255, 3, 1, 0, 0, 9, 2, 255, 255, 0, 3, 0, 0, 0})
	f.Add(make([]byte, 400))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab NodeTable[int64]
		model := map[NodeID]int64{}
		for ; len(data) >= 4; data = data[4:] {
			u := NodeID(data[1])<<8 | NodeID(data[2])
			if u == 0xffff {
				u = ^NodeID(0)
			}
			x := int64(int8(data[3]))
			switch data[0] % 8 {
			case 0, 1, 2:
				tab.Add(u, x)
				model[u] += x
			case 3, 4:
				tab.Put(u, x)
				model[u] = x
			case 7:
				switch data[0] {
				case 255:
					tab.Reset()
					clear(model)
				case 247:
					tab.Clear()
					clear(model)
				default:
					tab.Del(u)
					delete(model, u)
				}
			default:
				tab.Del(u)
				delete(model, u)
			}
			_, has := model[u]
			if tab.Len() != len(model) || tab.Get(u) != model[u] || tab.Has(u) != has {
				t.Fatalf("node %d: Len %d, Get %d, Has %v; model %d, %d, %v", u, tab.Len(), tab.Get(u), tab.Has(u), len(model), model[u], has)
			}
		}
		if !reflect.DeepEqual(tableContents(&tab), model) {
			t.Fatal("final contents disagree with the model")
		}
	})
}
