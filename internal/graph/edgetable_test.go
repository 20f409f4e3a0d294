package graph

import (
	"maps"
	"math/rand/v2"
	"reflect"
	"testing"

	"rept/internal/mem"
)

// edgeContents exports t as a map for comparison against a model.
func edgeContents[V any](t *EdgeTable[V]) map[uint64]V {
	out := make(map[uint64]V, t.Len())
	t.Each(func(k uint64, x V) {
		if _, dup := out[k]; dup {
			panic("Each visited a key twice")
		}
		out[k] = x
	})
	return out
}

// minSlots returns the slot count a table reaches when its live entries
// peak at n and it grows only on insertion past the load ceiling.
func minSlots(n int) int {
	size := tableMinSize
	for !fits(n, size) {
		size *= 2
	}
	return size
}

// checkEdgeTable requires tab to hold exactly model, to be no larger
// than its peak live count needs (deletion leaves no dead slots behind),
// and the ledger to equal its footprint.
func checkEdgeTable[V any](t testing.TB, tab *EdgeTable[V], model map[uint64]V, peak int, ac *mem.Accountant) {
	t.Helper()
	if got := edgeContents(tab); !reflect.DeepEqual(got, model) {
		t.Fatalf("contents (%d keys) disagree with the model (%d keys)", len(got), len(model))
	}
	if peak > 0 && len(tab.keys) != minSlots(peak) {
		t.Fatalf("%d slots after a peak of %d entries, want %d", len(tab.keys), peak, minSlots(peak))
	}
	if got, want := ac.Bytes(mem.CompCounters), tab.Bytes(); got != want {
		t.Fatalf("ledger %d B, footprint %d B", got, want)
	}
}

// TestEdgeTableMatchesMap runs edgeTableMatchesMap on the degree
// tracker's live-edge set (struct{} values, written by Put) and on int32,
// the shape of core's saturating per-edge counters (written by Put and
// through Ref).
func TestEdgeTableMatchesMap(t *testing.T) {
	t.Run("struct{}", func(t *testing.T) {
		var tab EdgeTable[struct{}]
		edgeTableMatchesMap(t, &tab, func(k, _ uint64, model map[uint64]struct{}) {
			_, had := model[k]
			if fresh := tab.Put(k, struct{}{}); fresh == had {
				t.Fatalf("Put(%#x) = %v with the key present = %v", k, fresh, had)
			}
			model[k] = struct{}{}
		})
		if tab.Bytes() != 8*int64(len(tab.keys)) {
			t.Fatalf("a set costs %d B over %d slots, want 8 per slot", tab.Bytes(), len(tab.keys))
		}
	})
	t.Run("int32", func(t *testing.T) {
		var tab EdgeTable[int32]
		edgeTableMatchesMap(t, &tab, func(k, r uint64, model map[uint64]int32) {
			if r%2 == 0 {
				_, had := model[k]
				if fresh := tab.Put(k, int32(r>>32)); fresh == had {
					t.Fatalf("Put(%#x) = %v with the key present = %v", k, fresh, had)
				}
				model[k] = int32(r >> 32)
				return
			}
			d := int32(r%7) - 3
			*tab.Ref(k) += d
			model[k] += d
		})
	})
}

// edgeTableMatchesMap drives a seeded mix of writes (write applies one to
// the table and the model) and deletes over a pool of edge keys against a
// plain map, in alternating fill and drain phases, so every key is
// deleted and re-inserted many times and deletions shift chains back
// across the table's wrap-around. After every step Len, Get, the key's
// presence, Del's report and the ledger must agree with the model and
// the footprint; at each phase boundary the contents must equal the model
// and the table must be no larger than its peak live count needs.
func edgeTableMatchesMap[V comparable](t *testing.T, tab *EdgeTable[V], write func(k, r uint64, model map[uint64]V)) {
	rng := rand.New(rand.NewPCG(5, 1))
	ac := mem.New()
	tab.SetAccountant(ac, mem.CompCounters)
	pool := make([]uint64, 3000)
	for i := range pool {
		u, v := NodeID(rng.IntN(120)), NodeID(rng.IntN(120))
		if u == v {
			v++
		}
		pool[i] = Key(u, v)
	}
	model := map[uint64]V{}
	peak := 0
	for step := 0; step < 80_000; step++ {
		writePerMille := 800
		if step/5000%2 == 1 {
			writePerMille = 150
		}
		k := pool[rng.IntN(len(pool))]
		if rng.IntN(1000) < writePerMille {
			write(k, rng.Uint64(), model)
		} else {
			_, had := model[k]
			if got := tab.Del(k); got != had {
				t.Fatalf("step %d: Del(%#x) = %v, model presence %v", step, k, got, had)
			}
			delete(model, k)
		}
		peak = max(peak, len(model))
		if got, want := ac.Bytes(mem.CompCounters), tab.Bytes(); got != want {
			t.Fatalf("step %d: ledger %d B, footprint %d B", step, got, want)
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, tab.Len(), len(model))
		}
		k = pool[rng.IntN(len(pool))]
		want, has := model[k]
		if got := tab.Get(k); got != want {
			t.Fatalf("step %d: Get(%#x) = %v, model %v", step, k, got, want)
		}
		if (tab.find(k) >= 0) != has {
			t.Fatalf("step %d: key %#x present = %v, model %v", step, k, !has, has)
		}
		if step%5000 == 4999 {
			checkEdgeTable(t, tab, model, peak, ac)
		}
	}
	if peak < len(pool)/2 {
		t.Fatalf("schedule peaked at %d of %d keys; the fill phases are too short", peak, len(pool))
	}
	snapshot := maps.Clone(model)
	for k := range snapshot {
		tab.Del(k)
	}
	for k, v := range snapshot {
		tab.Put(k, v)
	}
	checkEdgeTable(t, tab, snapshot, peak, ac)
}

// FuzzEdgeTable decodes a schedule of Put, Ref-add and Del operations on
// keys over 32 nodes from the input, applies it to an EdgeTable and a Go
// map, and requires the two to agree after every operation, the ledger
// to equal the footprint, and the table to be no larger than its peak
// live count needs.
func FuzzEdgeTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 2, 3, 2, 1})
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 3, 1, 2, 0, 1, 2})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		ac := mem.New()
		var tab EdgeTable[int32]
		tab.SetAccountant(ac, mem.CompCounters)
		model := map[uint64]int32{}
		peak := 0
		for ; len(data) >= 3; data = data[3:] {
			op, u, v := data[0], NodeID(data[1]%32), NodeID(data[2]%32)
			if u == v {
				v = (v + 1) % 32
			}
			k := Key(u, v)
			_, had := model[k]
			switch op % 3 {
			case 0:
				if fresh := tab.Put(k, int32(op)); fresh == had {
					t.Fatalf("Put(%#x) = %v with the key present = %v", k, fresh, had)
				}
				model[k] = int32(op)
			case 1:
				d := int32(op>>2) - 32
				*tab.Ref(k) += d
				model[k] += d
			default:
				if got := tab.Del(k); got != had {
					t.Fatalf("Del(%#x) = %v, model presence %v", k, got, had)
				}
				delete(model, k)
			}
			peak = max(peak, len(model))
			if tab.Len() != len(model) || tab.Get(k) != model[k] {
				t.Fatalf("key %#x: Len %d, Get %d; model %d, %d", k, tab.Len(), tab.Get(k), len(model), model[k])
			}
			checkEdgeTable(t, &tab, model, peak, ac)
		}
	})
}
