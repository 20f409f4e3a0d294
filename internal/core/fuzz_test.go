package core

import (
	"testing"

	"rept/internal/graph"
	"rept/internal/hashing"
)

// feedSlabs feeds ups to e through ApplyAll in slabs of 1 to 16 events,
// their lengths read off successive four-bit fields of a mix of seed, so
// a fuzz input reaches walk groups filled to every length and cut
// anywhere without a new argument.
func feedSlabs(e *Engine, ups []graph.Update, seed int64) {
	bits := hashing.Mix64(uint64(seed))
	for k := 0; len(ups) > 0; k++ {
		n := min(len(ups), int(bits>>(4*(k%16))&15)+1)
		e.ApplyAll(ups[:n])
		ups = ups[n:]
	}
}

// FuzzEngineEqualsSim feeds arbitrary byte-derived streams and (m, c)
// shapes into both engines — the engine in ApplyAll slabs (see
// feedSlabs), the Sim one event at a time — and requires bit-identical
// counters, and class sums equal by content with the same keys — the
// cross-implementation property that guards the whole reproduction.
func FuzzEngineEqualsSim(f *testing.F) {
	f.Add(uint8(3), uint8(7), int64(1), []byte{0x10, 0x21, 0x20, 0x31, 0x30})
	f.Add(uint8(1), uint8(1), int64(2), []byte{0x10, 0x21, 0x20})
	f.Add(uint8(5), uint8(11), int64(3), []byte{0xab, 0xcd, 0xef, 0x12, 0x34, 0x56})
	f.Fuzz(func(t *testing.T, mRaw, cRaw uint8, seed int64, data []byte) {
		m := int(mRaw%6) + 1
		c := int(cRaw%13) + 1
		if len(data) > 256 {
			data = data[:256]
		}
		cfg := Config{M: m, C: c, Seed: seed, TrackLocal: true, TrackEta: true}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ups := make([]graph.Update, len(data))
		for i, b := range data {
			u, v := graph.NodeID(b&0xf), graph.NodeID(b>>4)
			ups[i] = graph.Update{U: u, V: v}
			sim.Add(u, v)
		}
		feedSlabs(eng, ups, seed)
		aggE := eng.Aggregates()
		eng.Close()
		aggS := sim.Aggregates()
		for i := range aggE.TauProc {
			if aggE.TauProc[i] != aggS.TauProc[i] {
				t.Fatalf("TauProc[%d]: engine %d, sim %d", i, aggE.TauProc[i], aggS.TauProc[i])
			}
			if aggE.EtaProc[i] != aggS.EtaProc[i] {
				t.Fatalf("EtaProc[%d]: engine %d, sim %d", i, aggE.EtaProc[i], aggS.EtaProc[i])
			}
		}
		if name := classSumsDiff(aggE, aggS); name != "" {
			t.Fatalf("%s differs between engine and sim", name)
		}
		if aggE.Estimate().Global != aggS.Estimate().Global {
			t.Fatalf("Global: engine %v, sim %v", aggE.Estimate().Global, aggS.Estimate().Global)
		}
	})
}
