package shard

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/snapshot"
)

// TestShardedSnapshotRoundTrip: snapshot mid-stream, resume, feed the
// suffix; estimates must equal an uninterrupted coordinator bit-for-bit.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	edges := gen.Shuffle(gen.HolmeKim(400, 5, 0.4, 21), 9)
	cfg := Config{M: 4, C: 18, Shards: 3, Seed: 6, TrackLocal: true} // C%M=2: partial group, η forced
	cut := len(edges) / 2

	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.ApplyBatch(graph.Inserts(edges))
	want := full.Snapshot()
	wantSampled := full.SampledEdges()
	full.Close()

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.ApplyBatch(graph.Inserts(edges[:cut]))
	first.Add(3, 3) // self-loop, tallied but stateless
	var buf bytes.Buffer
	if err := first.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first.Close()

	resumed, err := Resume(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Processed() != uint64(cut) || resumed.SelfLoops() != 1 {
		t.Errorf("resumed tallies = (%d, %d), want (%d, 1)", resumed.Processed(), resumed.SelfLoops(), cut)
	}
	if resumed.Shards() != 3 {
		t.Errorf("resumed Shards = %d, want 3", resumed.Shards())
	}
	resumed.ApplyBatch(graph.Inserts(edges[cut:]))
	got := resumed.Snapshot()
	if got.Global != want.Global || got.EtaHat != want.EtaHat {
		t.Errorf("resumed estimate = %+v, want %+v", got, want)
	}
	if got.Variance != want.Variance && !(math.IsNaN(got.Variance) && math.IsNaN(want.Variance)) {
		t.Errorf("resumed variance = %v, want %v", got.Variance, want.Variance)
	}
	if !reflect.DeepEqual(got.Local, want.Local) {
		t.Error("resumed local estimates diverged")
	}
	if s := resumed.SampledEdges(); s != wantSampled {
		t.Errorf("resumed SampledEdges = %d, want %d", s, wantSampled)
	}
}

// TestShardedResumeRejectsMismatch covers the coordinator-level
// fingerprint checks, including the shard-count rule.
func TestShardedResumeRejectsMismatch(t *testing.T) {
	cfg := Config{M: 3, C: 12, Shards: 2, Seed: 8, TrackLocal: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ApplyBatch(graph.Inserts(gen.HolmeKim(120, 3, 0.4, 2)))
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data := buf.Bytes()

	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"SameConfig", func(c *Config) {}, ""},
		{"DifferentQueueing", func(c *Config) { c.BatchSize = 64; c.QueueLen = 2 }, ""},
		{"DifferentM", func(c *Config) { c.M = 4 }, "M = 3 in snapshot, 4 in config"},
		{"DifferentC", func(c *Config) { c.C = 9 }, "C = 12 in snapshot, 9 in config"},
		{"DifferentSeed", func(c *Config) { c.Seed = 9 }, "Seed = 8 in snapshot, 9 in config"},
		{"LocalOff", func(c *Config) { c.TrackLocal = false }, "TrackLocal = true in snapshot, false in config"},
		{"EtaOn", func(c *Config) { c.TrackEta = true }, "TrackEta = false in snapshot, true in config"},
		{"DifferentShards", func(c *Config) { c.Shards = 4 }, "snapshot has 2 shards, config implies 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			tc.mut(&c)
			got, err := Resume(c, bytes.NewReader(data))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Resume: %v", err)
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

	// An engine snapshot is not a sharded snapshot.
	if _, err := Resume(cfg, strings.NewReader("REPTSNAP")); err == nil {
		t.Error("Resume of garbage succeeded")
	}
}

// TestConcurrentCheckpointUnderLoad exercises WriteSnapshot racing with
// producers (the -race tier-1 run makes this a data-race probe): the
// snapshot must be internally consistent — decodable, with shard states
// and tallies describing one prefix — while ingestion continues.
func TestConcurrentCheckpointUnderLoad(t *testing.T) {
	cfg := Config{M: 3, C: 9, Shards: 2, Seed: 4, TrackLocal: true, BatchSize: 32}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	edges := gen.Shuffle(gen.HolmeKim(300, 4, 0.3, 5), 2)
	const producers = 4
	var wg sync.WaitGroup
	chunk := (len(edges) + producers - 1) / producers
	for p := 0; p < producers; p++ {
		lo := min(p*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		wg.Add(1)
		go func(part []graph.Edge) {
			defer wg.Done()
			for _, e := range part {
				s.Add(e.U, e.V)
			}
		}(edges[lo:hi])
	}

	var bufs []bytes.Buffer
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		bufs = append(bufs, buf)
	}
	wg.Wait()

	for i := range bufs {
		st, err := snapshot.ReadSharded(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("checkpoint %d unreadable: %v", i, err)
		}
		// Every shard engine saw every edge of the prefix, so their
		// processed counters must all equal the coordinator tally.
		for j, sh := range st.Shards {
			if sh.Processed != st.Processed {
				t.Errorf("checkpoint %d shard %d processed %d != coordinator %d (inconsistent barrier)", i, j, sh.Processed, st.Processed)
			}
		}
		// And the snapshot must actually resume.
		r, err := Resume(cfg, bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("checkpoint %d: Resume: %v", i, err)
		}
		if r.Processed() != st.Processed {
			t.Errorf("checkpoint %d: resumed Processed = %d, want %d", i, r.Processed(), st.Processed)
		}
		r.Close()
	}
}
