package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
)

// TestFullyDynamicInsertOnlyBitIdentical: with no deletions in the
// stream, an engine built with FullyDynamic produces counters that are
// bit-for-bit identical to one built without — the flag must cost
// nothing on insert-only workloads.
func TestFullyDynamicInsertOnlyBitIdentical(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(300, 4, 0.4, 21), 5)
	for _, c := range []int{10, 70} {
		cfg := Config{M: 4, C: c, Seed: 7, TrackLocal: true, TrackEta: true}
		plain, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FullyDynamic = true
		dyn, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain.AddAll(edges)
		dyn.ApplyAll(graph.Inserts(edges))
		ap, ad := plain.Aggregates(), dyn.Aggregates()
		if !reflect.DeepEqual(ap, ad) {
			t.Fatalf("C=%d: insert-only counters diverge between FullyDynamic on/off", c)
		}
		if ps := dyn.PairingCounters(); ps != (PairingStats{}) {
			t.Errorf("C=%d: pairing counters %+v on an insert-only stream", c, ps)
		}
		plain.Close()
		dyn.Close()
	}
}

// TestFullyDynamicLIFOTeardown: deleting every edge in exact reverse
// insertion order applies the exact inverse of each insertion against the
// same intermediate state, so every counter — not just in expectation —
// returns to zero, on every processor.
func TestFullyDynamicLIFOTeardown(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(200, 4, 0.5, 3), 9)
	eng, err := NewEngine(Config{M: 3, C: 8, Seed: 11, TrackLocal: true, TrackEta: true, FullyDynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.AddAll(edges)
	if eng.SampledEdges() == 0 {
		t.Fatal("no edges sampled; stream too small for the test")
	}
	for i := len(edges) - 1; i >= 0; i-- {
		eng.Delete(edges[i].U, edges[i].V)
	}
	if got := eng.SampledEdges(); got != 0 {
		t.Errorf("SampledEdges = %d after full teardown, want 0", got)
	}
	agg := eng.Aggregates()
	for i, tau := range agg.TauProc {
		if tau != 0 {
			t.Errorf("TauProc[%d] = %d after LIFO teardown, want 0", i, tau)
		}
		if agg.EtaProc[i] != 0 {
			t.Errorf("EtaProc[%d] = %d after LIFO teardown, want 0", i, agg.EtaProc[i])
		}
	}
	for v, x := range tableMap(agg.TauV1) {
		if x != 0 {
			t.Errorf("TauV1[%d] = %d, want 0", v, x)
		}
	}
	for v, x := range tableMap(agg.TauV2) {
		if x != 0 {
			t.Errorf("TauV2[%d] = %d, want 0", v, x)
		}
	}
	if g := eng.Result().Global; g != 0 {
		t.Errorf("Global = %v after LIFO teardown, want exactly 0", g)
	}
	ps := eng.PairingCounters()
	if ps.PhantomDeletes != 0 {
		t.Errorf("PhantomDeletes = %d on a well-formed stream", ps.PhantomDeletes)
	}
	if ps.SampledDeletes == 0 || ps.UnsampledDeletes == 0 {
		t.Errorf("pairing counters %+v: expected both d_i and d_o activity", ps)
	}
	if want := uint64(len(edges)); eng.Deleted() != want {
		t.Errorf("Deleted = %d, want %d", eng.Deleted(), want)
	}
}

// TestDeleteRequiresFullyDynamic: deletions against a plain engine panic
// with ErrNotDynamic before mutating anything.
func TestDeleteRequiresFullyDynamic(t *testing.T) {
	eng, err := NewEngine(Config{M: 2, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Add(1, 2)
	defer func() {
		if r := recover(); r != ErrNotDynamic {
			t.Errorf("recovered %v, want ErrNotDynamic", r)
		}
		if eng.Processed() != 1 || eng.Deleted() != 0 {
			t.Errorf("tallies mutated by rejected delete: processed=%d deleted=%d", eng.Processed(), eng.Deleted())
		}
	}()
	eng.Delete(1, 2)
}

// checkDynamicInvariants asserts the structural invariants that must
// hold for ANY signed sequence, well-formed or not: finite estimates and
// every processor's per-edge counters keyed by exactly its sampled edges.
func checkDynamicInvariants(t *testing.T, eng *Engine) {
	t.Helper()
	st := eng.State()
	for i := range st.Procs {
		p := &st.Procs[i]
		if p.Tcnt != nil && len(p.Tcnt) != len(p.Edges) {
			t.Fatalf("processor %d: %d tcnt entries for %d sampled edges", i, len(p.Tcnt), len(p.Edges))
		}
		for _, e := range p.Edges {
			if e.U == e.V {
				t.Fatalf("processor %d: sampled self-loop (%d,%d)", i, e.U, e.V)
			}
			if p.Tcnt != nil {
				if _, ok := p.Tcnt[e.Key()]; !ok {
					t.Fatalf("processor %d: sampled edge (%d,%d) has no tcnt entry", i, e.U, e.V)
				}
			}
		}
	}
	res := eng.Result()
	if math.IsNaN(res.Global) || math.IsInf(res.Global, 0) {
		t.Fatalf("Global = %v", res.Global)
	}
	if math.IsNaN(res.EtaHat) || math.IsInf(res.EtaHat, 0) {
		t.Fatalf("EtaHat = %v", res.EtaHat)
	}
	for v, x := range res.Local {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("Local[%d] = %v", v, x)
		}
	}
	if eng.SampledEdges() < 0 {
		t.Fatalf("SampledEdges = %d", eng.SampledEdges())
	}
}

// FuzzFullyDynamicCore throws arbitrary signed sequences — including
// malformed ones that delete absent edges or re-insert live ones — at a
// fully-dynamic engine and asserts that it matches the all-processor
// reference walk bit for bit (derived d_o included) and that the state
// invariants hold: no panics, no NaN/Inf estimates, no negative
// sampled-set sizes, the per-edge counters keyed by exactly the sampled
// edges, and the whole state snapshot-round-trippable into an
// engine with bit-identical counters.
func FuzzFullyDynamicCore(f *testing.F) {
	f.Add(uint8(3), uint8(7), int64(1), []byte{0x10, 0x21, 0x20, 0x91, 0x30})
	f.Add(uint8(2), uint8(5), int64(2), []byte{0x10, 0x21, 0x20, 0xa0, 0xa0, 0x20})
	f.Add(uint8(1), uint8(1), int64(3), []byte{0xff, 0x7f, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, mRaw, cRaw uint8, seed int64, data []byte) {
		m := int(mRaw%6) + 1
		c := int(cRaw%13) + 1
		if len(data) > 256 {
			data = data[:256]
		}
		cfg := Config{M: m, C: c, Seed: seed, TrackLocal: true, TrackEta: true, FullyDynamic: true}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Each byte is one event: low nibbles pick endpoints in [0, 8), the
		// top bit selects deletion — so duplicate inserts, deletes of
		// absent edges, and self-loops all occur naturally.
		ref := newRefEngine(t, cfg)
		defer ref.Close()
		for _, b := range data {
			u, v := graph.NodeID(b&0x7), graph.NodeID((b>>3)&0x7)
			up := graph.Update{U: u, V: v, Del: b&0x80 != 0}
			eng.Apply(up)
			ref.apply(up)
		}
		sameAsRef(t, "fuzz", ref, eng)
		checkDynamicInvariants(t, eng)

		// Snapshot round trip: the restored engine must carry bit-identical
		// counters and keep producing identical estimates on a suffix.
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := ResumeEngine(cfg, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if !sameAggregates(eng.Aggregates(), restored.Aggregates()) {
			t.Fatal("restored aggregates diverge")
		}
		eng.Add(1, 2)
		restored.Add(1, 2)
		if eng.Result().Global != restored.Result().Global {
			t.Fatal("restored estimate diverges on suffix")
		}
	})
}
