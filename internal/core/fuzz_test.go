package core

import (
	"testing"

	"rept/internal/graph"
)

// FuzzEngineEqualsSim feeds arbitrary byte-derived streams and (m, c)
// shapes into both engines and requires bit-identical counters — the
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
		for _, b := range data {
			u, v := graph.NodeID(b&0xf), graph.NodeID(b>>4)
			eng.Add(u, v)
			sim.Add(u, v)
		}
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
		for v, x := range tableMap(aggE.TauV1) {
			if aggS.TauV1.Get(v) != x {
				t.Fatalf("TauV1[%d]: engine %d, sim %d", v, x, aggS.TauV1.Get(v))
			}
		}
		for v, x := range tableMap(aggE.TauV2) {
			if aggS.TauV2.Get(v) != x {
				t.Fatalf("TauV2[%d]: engine %d, sim %d", v, x, aggS.TauV2.Get(v))
			}
		}
		for v, x := range tableMap(aggE.EtaV) {
			if aggS.EtaV.Get(v) != x {
				t.Fatalf("EtaV[%d]: engine %d, sim %d", v, x, aggS.EtaV.Get(v))
			}
		}
		if aggE.Estimate().Global != aggS.Estimate().Global {
			t.Fatalf("Global: engine %v, sim %v", aggE.Estimate().Global, aggS.Estimate().Global)
		}
	})
}
