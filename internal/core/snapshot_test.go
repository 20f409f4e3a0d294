package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/snapshot"
)

// feed drives edges into an engine one at a time.
func feed(e *Engine, edges []graph.Edge) {
	for _, ed := range edges {
		e.Add(ed.U, ed.V)
	}
}

// sameEstimate compares two estimates for bit-identical equality,
// treating NaN variances (η not tracked) as equal.
func sameEstimate(a, b Estimate) bool {
	if a.Global != b.Global || a.EtaHat != b.EtaHat || a.Combined != b.Combined {
		return false
	}
	if a.Variance != b.Variance && !(math.IsNaN(a.Variance) && math.IsNaN(b.Variance)) {
		return false
	}
	return reflect.DeepEqual(a.Local, b.Local)
}

// TestSnapshotRoundTripProperty: for random (M, C, TrackLocal, TrackEta)
// configurations and a random interruption point, snapshot → restore →
// continue must produce estimates identical to an uninterrupted run —
// the core durability contract.
func TestSnapshotRoundTripProperty(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(300, 5, 0.4, 7), 3)
	rng := rand.New(rand.NewPCG(42, 99))

	for trial := 0; trial < 25; trial++ {
		cfg := Config{
			M:          1 + rng.IntN(12),
			C:          1 + rng.IntN(30),
			Seed:       int64(rng.Uint64()),
			TrackLocal: rng.IntN(2) == 0,
			TrackEta:   rng.IntN(2) == 0,
		}
		cut := rng.IntN(len(edges) + 1)

		uninterrupted, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(uninterrupted, edges)
		want := uninterrupted.Result()
		uninterrupted.Close()

		first, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(first, edges[:cut])
		var buf bytes.Buffer
		if err := first.WriteSnapshot(&buf); err != nil {
			t.Fatalf("trial %d (%+v cut %d): WriteSnapshot: %v", trial, cfg, cut, err)
		}
		// The engine keeps running after a snapshot; finishing the stream
		// on it must also match the uninterrupted run.
		feed(first, edges[cut:])
		if got := first.Result(); !sameEstimate(got, want) {
			t.Errorf("trial %d (%+v cut %d): snapshotted-but-continued engine diverged: %+v vs %+v", trial, cfg, cut, got, want)
		}
		first.Close()

		resumed, err := ResumeEngine(cfg, &buf)
		if err != nil {
			t.Fatalf("trial %d (%+v cut %d): ResumeEngine: %v", trial, cfg, cut, err)
		}
		feed(resumed, edges[cut:])
		if got := resumed.Result(); !sameEstimate(got, want) {
			t.Errorf("trial %d (%+v cut %d): resumed engine diverged: %+v vs %+v", trial, cfg, cut, got, want)
		}
		if resumed.Processed() != uint64(len(edges)) {
			t.Errorf("trial %d: resumed Processed = %d, want %d", trial, resumed.Processed(), len(edges))
		}
		resumed.Close()
	}
}

// TestSnapshotResumeStateCounters: tallies (processed, self-loops) and
// the sampled-edge diagnostic survive the round trip exactly.
func TestSnapshotResumeStateCounters(t *testing.T) {
	cfg := Config{M: 4, C: 10, Seed: 5, TrackLocal: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	feed(e, gen.HolmeKim(100, 3, 0.5, 1))
	e.Add(7, 7) // self-loop
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeEngine(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Processed() != e.Processed() || r.SelfLoops() != 1 {
		t.Errorf("resumed tallies = (%d, %d), want (%d, 1)", r.Processed(), r.SelfLoops(), e.Processed())
	}
	if r.SampledEdges() != e.SampledEdges() {
		t.Errorf("resumed SampledEdges = %d, want %d", r.SampledEdges(), e.SampledEdges())
	}
}

// TestResumeRejectsConfigMismatch: restoring under any differing
// statistical parameter must fail with a descriptive error.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	base := Config{M: 6, C: 15, Seed: 3, TrackLocal: true, TrackEta: true}
	e, err := NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	feed(e, gen.HolmeKim(80, 3, 0.3, 2))
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e.Close()
	data := buf.Bytes()

	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring the error must contain; "" means must succeed
	}{
		{"SameConfig", func(c *Config) {}, ""},
		{"DifferentM", func(c *Config) { c.M = 7 }, "M = 6 in snapshot, 7 in config"},
		{"DifferentC", func(c *Config) { c.C = 16 }, "C = 15 in snapshot, 16 in config"},
		{"DifferentSeed", func(c *Config) { c.Seed = 4 }, "Seed = 3 in snapshot, 4 in config"},
		{"LocalOff", func(c *Config) { c.TrackLocal = false }, "TrackLocal = true in snapshot, false in config"},
		{"EtaOff", func(c *Config) { c.TrackEta = false }, "TrackEta = true in snapshot, false in config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			got, err := ResumeEngine(cfg, bytes.NewReader(data))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("ResumeEngine: %v", err)
				}
				got.Close()
				return
			}
			if err == nil {
				got.Close()
				t.Fatal("mismatched resume succeeded")
			}
			if !errors.Is(err, snapshot.ErrMismatch) {
				t.Errorf("err = %v, want ErrMismatch", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q missing %q", err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsInconsistentState: a state whose payload disagrees
// with its own fingerprint is corrupt, not restorable.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	cfg := Config{M: 3, C: 4, Seed: 1, TrackLocal: true, TrackEta: true}
	mutations := []struct {
		name string
		mut  func(*snapshot.EngineState)
	}{
		{"MissingTauV", func(s *snapshot.EngineState) { s.TauV1 = nil }},
		{"MissingTauV2", func(s *snapshot.EngineState) { s.TauV2 = nil }},
		{"MissingEtaV", func(s *snapshot.EngineState) { s.EtaV = nil }},
		{"MissingTcnt", func(s *snapshot.EngineState) { s.Procs[2].Tcnt = nil }},
		{"TcntEdgeCountSkew", func(s *snapshot.EngineState) {
			p := &s.Procs[0]
			p.Tcnt[graph.Key(1000, 1001)] = 1 // counter for an edge not sampled
		}},
		{"InconsistentDo", func(s *snapshot.EngineState) { s.Procs[1].Do++ }},
		{"DeletionTallySkew", func(s *snapshot.EngineState) { s.Procs[2].Di, s.Procs[2].Do = 1, ^uint64(0) }},
		{"DuplicateEdge", func(s *snapshot.EngineState) {
			p := &s.Procs[0]
			if len(p.Edges) == 0 {
				p.Edges = []graph.Edge{{U: 1, V: 2}}
				p.Tcnt = map[uint64]int32{graph.Key(1, 2): 0}
			}
			p.Edges = append(p.Edges, p.Edges[0])
			p.Tcnt[graph.Key(2000, 2001)] = 0 // keep sizes consistent
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed(fresh, gen.Complete(12))
			st := fresh.State()
			fresh.Close()
			tc.mut(st)
			if eng, err := RestoreEngine(cfg, st); err == nil {
				eng.Close()
				t.Error("inconsistent state restored without error")
			} else if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSnapshotAfterResumeIsCanonical: state → bytes → state → bytes is
// byte-identical, so repeated checkpoint/restore cycles cannot drift.
func TestSnapshotAfterResumeIsCanonical(t *testing.T) {
	cfg := Config{M: 5, C: 12, Seed: 9, TrackLocal: true, TrackEta: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(e, gen.Shuffle(gen.HolmeKim(200, 4, 0.5, 11), 5))
	var first bytes.Buffer
	if err := e.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	e.Close()

	r, err := ResumeEngine(cfg, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := r.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("snapshot of a resumed engine differs from the snapshot it was resumed from")
	}
}
