package core

import (
	"fmt"

	"rept/internal/graph"
)

// Sim evaluates all of REPT's logical processors in a single pass over one
// shared adjacency structure. Each stored edge is labeled with its color
// under every group hash; a processor (g, j)'s semi-triangle counter
// increases exactly when an arriving edge (u,v) has a common neighbor w
// whose two wedge edges both have color j under hash g — which is
// precisely the event "both first edges sampled by processor (g, j)".
//
// Sim produces counters bit-identical to Engine's (property-tested), runs
// ~c/L times faster for Monte-Carlo experiments (L = number of groups),
// and can emit Aggregates for any c' ≤ C in the same pass because it
// counts all m colors of every group, not only the active ones.
type Sim struct {
	cfg      Config
	lay      layout
	trackEta bool
	hashes   []Hasher
	numL     int

	adj      map[graph.NodeID]map[graph.NodeID]int32 // node -> neighbor -> edge id
	colors   []uint16                                // [edgeID*numL + l] color of edge under hash l
	tcnt     []uint32                                // [edgeID*numL + l] τ⁽ⁱ⁾_edge counters (η bookkeeping)
	numEdges int

	tau [][]int64 // [group][color] semi-triangle counts, all m colors
	eta [][]int64 // [group][color] η⁽ⁱ⁾ counts

	tauV1 *graph.NodeTable[int64]
	tauV2 *graph.NodeTable[int64]
	etaV  *graph.NodeTable[int64]

	scratch  []simWedge
	matchNew []uint32

	processed uint64
	selfLoops uint64
}

type simWedge struct {
	w            graph.NodeID
	eidUW, eidVW int32
}

// NewSim builds a Sim for cfg.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := newLayout(cfg.M, cfg.C)
	s := &Sim{
		cfg:      cfg,
		lay:      lay,
		trackEta: cfg.TrackEta || lay.needsEta(),
		hashes:   cfg.hashFamily(lay.groups),
		numL:     lay.groups,
		adj:      make(map[graph.NodeID]map[graph.NodeID]int32),
		matchNew: make([]uint32, lay.groups),
	}
	s.tau = make([][]int64, lay.groups)
	for l := range s.tau {
		s.tau[l] = make([]int64, cfg.M)
	}
	if s.trackEta {
		s.eta = make([][]int64, lay.groups)
		for l := range s.eta {
			s.eta[l] = make([]int64, cfg.M)
		}
	}
	if cfg.TrackLocal {
		s.tauV1 = &graph.NodeTable[int64]{}
		s.tauV2 = &graph.NodeTable[int64]{}
		if s.trackEta {
			s.etaV = &graph.NodeTable[int64]{}
		}
	}
	return s, nil
}

// Add feeds one stream edge. Self-loops are skipped; duplicate edges go
// through the counting phase but are not re-inserted, matching Engine.
func (s *Sim) Add(u, v graph.NodeID) {
	if u == v {
		s.selfLoops++
		return
	}
	s.processed++
	key := graph.Key(u, v)
	L := s.numL

	// Colors of the arriving edge under every group hash (needed both for
	// the insertion decision and for initializing its τ_edge counters).
	for l := 0; l < L; l++ {
		s.matchNew[l] = 0
	}
	newColors := make([]uint16, L)
	for l := 0; l < L; l++ {
		newColors[l] = uint16(s.hashes[l].Color(key))
	}

	// Enumerate common neighbors in the full graph, iterating the smaller
	// neighborhood and probing the larger. scratch records the edge ids of
	// the wedge edges (u,w) and (v,w).
	nu, nv := s.adj[u], s.adj[v]
	s.scratch = s.scratch[:0]
	if len(nu) <= len(nv) {
		for w, eidUW := range nu {
			if eidVW, ok := nv[w]; ok {
				s.scratch = append(s.scratch, simWedge{w: w, eidUW: eidUW, eidVW: eidVW})
			}
		}
	} else {
		for w, eidVW := range nv {
			if eidUW, ok := nu[w]; ok {
				s.scratch = append(s.scratch, simWedge{w: w, eidUW: eidUW, eidVW: eidVW})
			}
		}
	}

	for _, cn := range s.scratch {
		baseU := int(cn.eidUW) * L
		baseV := int(cn.eidVW) * L
		for l := 0; l < L; l++ {
			cu := s.colors[baseU+l]
			cv := s.colors[baseV+l]
			if cu != cv {
				continue
			}
			// Processor (l, cu) closes a semi-triangle at this edge.
			var a, b uint32
			if s.trackEta {
				a, b = s.tcnt[baseU+l], s.tcnt[baseV+l]
			}
			active := int(cu) < s.lay.activeColors(l)
			if active {
				s.tau[l][cu]++
				if s.tauV1 != nil {
					dst := s.tauV1
					if s.lay.isPartialGroup(l) {
						dst = s.tauV2
					}
					dst.Add(u, 1)
					dst.Add(v, 1)
					dst.Add(cn.w, 1)
				}
				if s.trackEta {
					s.eta[l][cu] += int64(a) + int64(b)
					if s.etaV != nil {
						if ab := int64(a) + int64(b); ab > 0 {
							s.etaV.Add(cn.w, ab)
						}
						if a > 0 {
							s.etaV.Add(u, int64(a))
						}
						if b > 0 {
							s.etaV.Add(v, int64(b))
						}
					}
				}
			}
			if s.trackEta {
				s.tcnt[baseU+l] = a + 1
				s.tcnt[baseV+l] = b + 1
			}
			if cu == newColors[l] {
				s.matchNew[l]++
			}
		}
	}

	// Insert the edge unless it is a duplicate.
	if _, dup := s.adj[u][v]; dup {
		return
	}
	eid := int32(s.numEdges)
	s.numEdges++
	s.linkSim(u, v, eid)
	s.linkSim(v, u, eid)
	s.colors = append(s.colors, newColors...)
	if s.trackEta {
		s.tcnt = append(s.tcnt, s.matchNew...)
	}
}

func (s *Sim) linkSim(u, v graph.NodeID, eid int32) {
	m := s.adj[u]
	if m == nil {
		m = make(map[graph.NodeID]int32)
		s.adj[u] = m
	}
	m[v] = eid
}

// AddEdge feeds one stream edge.
func (s *Sim) AddEdge(e graph.Edge) { s.Add(e.U, e.V) }

// AddAll feeds a slice of stream edges in order.
func (s *Sim) AddAll(edges []graph.Edge) {
	for _, e := range edges {
		s.Add(e.U, e.V)
	}
}

// Aggregates gathers the counters for the configured C.
func (s *Sim) Aggregates() *Aggregates {
	agg, err := s.AggregatesFor(s.cfg.C)
	if err != nil {
		panic(err) // unreachable: cfg.C is always valid for itself
	}
	return agg
}

// AggregatesFor gathers counters for an alternative processor count
// c ≤ cfg.C with the same m. Global counters (TauProc, EtaProc) are exact
// for every such c because Sim counts all colors of every group; local
// per-node sums are class-specific and therefore only available when
// c == cfg.C (they are omitted otherwise).
func (s *Sim) AggregatesFor(c int) (*Aggregates, error) {
	if c < 1 || c > s.cfg.C {
		return nil, fmt.Errorf("core: AggregatesFor(%d) out of range [1, %d]", c, s.cfg.C)
	}
	lay := newLayout(s.cfg.M, c)
	if lay.groups > s.numL {
		return nil, fmt.Errorf("core: AggregatesFor(%d) needs %d groups, have %d", c, lay.groups, s.numL)
	}
	agg := &Aggregates{M: s.cfg.M, C: c, TauProc: make([]int64, c)}
	needEta := s.trackEta && (s.cfg.TrackEta || lay.needsEta())
	if needEta {
		agg.EtaProc = make([]int64, c)
	}
	for i := 0; i < c; i++ {
		g, j := lay.groupOf(i), lay.colorOf(i)
		agg.TauProc[i] = s.tau[g][j]
		if needEta {
			agg.EtaProc[i] = s.eta[g][j]
		}
	}
	if c == s.cfg.C && s.cfg.TrackLocal {
		agg.TauV1 = s.tauV1
		agg.TauV2 = s.tauV2
		if s.trackEta {
			agg.EtaV = s.etaV
		}
	}
	return agg, nil
}

// Result evaluates the estimators for the configured C.
func (s *Sim) Result() Estimate { return s.Aggregates().Estimate() }

// ResultFor evaluates the estimators for an alternative c ≤ cfg.C (global
// estimate only unless c == cfg.C; see AggregatesFor).
func (s *Sim) ResultFor(c int) (Estimate, error) {
	agg, err := s.AggregatesFor(c)
	if err != nil {
		return Estimate{}, err
	}
	return agg.Estimate(), nil
}

// Processed returns the number of non-loop edges fed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// SelfLoops returns the number of self-loop arrivals skipped.
func (s *Sim) SelfLoops() uint64 { return s.selfLoops }
