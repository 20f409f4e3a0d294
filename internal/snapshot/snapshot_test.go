package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rept/internal/graph"
)

func testEngineState() *EngineState {
	return &EngineState{
		Fingerprint: Fingerprint{M: 3, C: 4, Seed: -7, TrackLocal: true, TrackEta: true},
		Processed:   123,
		SelfLoops:   4,
		Procs: []ProcState{
			{
				Tau: 9, Eta: 2,
				Edges: []graph.Edge{{U: 5, V: 1}, {U: 2, V: 3}},
				Tcnt:  map[uint64]int32{graph.Key(1, 5): 1, graph.Key(2, 3): 0},
			},
			{Tau: 1, Tcnt: map[uint64]int32{}},
			{Edges: []graph.Edge{{U: 0, V: 1}}, Tcnt: map[uint64]int32{graph.Key(0, 1): 0}},
			{Tcnt: map[uint64]int32{}},
		},
		TauV1: tableOf(map[graph.NodeID]int64{1: 4, 9: 1}),
		TauV2: tableOf(map[graph.NodeID]int64{0: 3, 9: 0}),
		EtaV:  tableOf(map[graph.NodeID]int64{2: 7}),
	}
}

// tableOf builds a class-sum table from a map.
func tableOf(m map[graph.NodeID]int64) *graph.NodeTable[int64] {
	t := &graph.NodeTable[int64]{}
	for v, x := range m {
		t.Add(v, x)
	}
	return t
}

// tableMap exports a class-sum table as a map (nil for a nil table).
func tableMap(t *graph.NodeTable[int64]) map[graph.NodeID]int64 {
	if t == nil {
		return nil
	}
	out := make(map[graph.NodeID]int64, t.Len())
	t.Each(func(v graph.NodeID, x int64) { out[v] = x })
	return out
}

// sameClassSums compares two engine states' class-sum tables by content:
// a table's slot layout depends on the order its entries were inserted in.
func sameClassSums(a, b *EngineState) bool {
	for _, p := range [][2]*graph.NodeTable[int64]{{a.TauV1, b.TauV1}, {a.TauV2, b.TauV2}, {a.EtaV, b.EtaV}} {
		if !reflect.DeepEqual(tableMap(p[0]), tableMap(p[1])) {
			return false
		}
	}
	return true
}

// sameEngineState compares two engine states by value, the class sums by
// content.
func sameEngineState(a, b *EngineState) bool {
	x, y := *a, *b
	x.TauV1, x.TauV2, x.EtaV = nil, nil, nil
	y.TauV1, y.TauV2, y.EtaV = nil, nil, nil
	return sameClassSums(a, b) && reflect.DeepEqual(x, y)
}

func testShardedState() *ShardedState {
	eng := testEngineState()
	return &ShardedState{
		Fingerprint: Fingerprint{M: 3, C: 8, Seed: 11, TrackLocal: true, TrackEta: true},
		ShardCount:  2,
		Processed:   123,
		SelfLoops:   4,
		Shards:      []EngineState{*eng, *eng},
	}
}

func encodeEngine(t *testing.T, st *EngineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEngine(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEngineRoundTrip(t *testing.T) {
	st := testEngineState()
	data := encodeEngine(t, st)
	got, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != st.Fingerprint {
		t.Errorf("fingerprint = %+v, want %+v", got.Fingerprint, st.Fingerprint)
	}
	if got.Processed != st.Processed || got.SelfLoops != st.SelfLoops {
		t.Errorf("tallies = (%d, %d), want (%d, %d)", got.Processed, got.SelfLoops, st.Processed, st.SelfLoops)
	}
	if len(got.Procs) != len(st.Procs) {
		t.Fatalf("decoded %d procs, want %d", len(got.Procs), len(st.Procs))
	}
	p := got.Procs[0]
	if p.Tau != 9 || p.Eta != 2 {
		t.Errorf("proc 0 counters = (%d, %d), want (9, 2)", p.Tau, p.Eta)
	}
	if len(p.Edges) != 2 || p.Edges[0] != (graph.Edge{U: 1, V: 5}) || p.Edges[1] != (graph.Edge{U: 2, V: 3}) {
		t.Errorf("proc 0 edges = %v (want canonical sorted {1,5},{2,3})", p.Edges)
	}
	if p.Tcnt[graph.Key(1, 5)] != 1 {
		t.Errorf("proc 0 tcnt = %v", p.Tcnt)
	}
	// Class sums round-trip by content, zero-valued entries and node 0
	// included.
	if !sameClassSums(got, st) {
		t.Errorf("class sums decoded as %v / %v / %v", tableMap(got.TauV1), tableMap(got.TauV2), tableMap(got.EtaV))
	}
}

// TestCanonicalEncoding: encoding is deterministic (sorted keys), so the
// same state always produces byte-identical snapshots — the property that
// makes snapshot diffs and content-addressed storage meaningful.
func TestCanonicalEncoding(t *testing.T) {
	a := encodeEngine(t, testEngineState())
	b := encodeEngine(t, testEngineState())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same state differ")
	}

	// Decode and re-encode: still byte-identical.
	got, err := ReadEngine(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeEngine(t, got); !bytes.Equal(a, c) {
		t.Error("decode→encode is not byte-identical")
	}
}

func TestShardedRoundTrip(t *testing.T) {
	st := testShardedState()
	var buf bytes.Buffer
	if err := WriteSharded(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSharded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != st.Fingerprint || got.ShardCount != 2 {
		t.Errorf("header = %+v/%d, want %+v/2", got.Fingerprint, got.ShardCount, st.Fingerprint)
	}
	if len(got.Shards) != 2 || len(got.Shards[1].Procs) != 4 {
		t.Fatalf("shards decoded wrong: %d shards", len(got.Shards))
	}

	// The generic reader identifies the kind.
	eng, sh, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil || eng != nil || sh == nil {
		t.Errorf("Read(sharded) = (%v, %v, %v)", eng, sh, err)
	}
}

func TestKindConfusionRejected(t *testing.T) {
	data := encodeEngine(t, testEngineState())
	if _, err := ReadSharded(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "engine snapshot") {
		t.Errorf("ReadSharded(engine snapshot) err = %v, want kind error", err)
	}
	var buf bytes.Buffer
	if err := WriteSharded(&buf, testShardedState()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEngine(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "sharded snapshot") {
		t.Errorf("ReadEngine(sharded snapshot) err = %v, want kind error", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeEngine(t, testEngineState())

	t.Run("BadMagic", func(t *testing.T) {
		if _, err := ReadEngine(strings.NewReader("NOTASNAP....")); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
		if _, err := ReadEngine(strings.NewReader("")); !errors.Is(err, ErrBadMagic) {
			t.Errorf("empty input err = %v, want ErrBadMagic", err)
		}
	})

	t.Run("FutureVersion", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[8] = 99 // version varint
		if _, err := ReadEngine(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version 99") {
			t.Errorf("err = %v, want unsupported-version error", err)
		}
	})

	t.Run("Truncated", func(t *testing.T) {
		for _, n := range []int{9, 12, len(valid) / 2, len(valid) - 1} {
			if _, err := ReadEngine(bytes.NewReader(valid[:n])); !errors.Is(err, ErrCorrupt) {
				t.Errorf("truncated at %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})

	t.Run("ChecksumFlip", func(t *testing.T) {
		// Flip one payload bit. Either the structure breaks (ErrCorrupt
		// from a field check) or the CRC catches it; both wrap ErrCorrupt.
		data := append([]byte{}, valid...)
		data[len(data)/2] ^= 0x10
		if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip: err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("TrailingCRCFlip", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[len(data)-1] ^= 0xff
		if _, err := ReadEngine(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("crc flip: err = %v, want ErrCorrupt", err)
		}
	})
}

func TestWriteValidation(t *testing.T) {
	st := testEngineState()
	st.Procs = st.Procs[:2] // C says 4
	if err := WriteEngine(&bytes.Buffer{}, st); err == nil {
		t.Error("WriteEngine with proc/C mismatch succeeded")
	}
	sh := testShardedState()
	sh.ShardCount = 3
	if err := WriteSharded(&bytes.Buffer{}, sh); err == nil {
		t.Error("WriteSharded with shard-count mismatch succeeded")
	}
}

func TestFingerprintMatch(t *testing.T) {
	base := Fingerprint{M: 10, C: 40, Seed: 1, TrackLocal: true, TrackEta: false}
	if err := base.Match(base); err != nil {
		t.Errorf("identical fingerprints: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Fingerprint)
		want string
	}{
		{"M", func(f *Fingerprint) { f.M = 11 }, "M = 10 in snapshot, 11 in config"},
		{"C", func(f *Fingerprint) { f.C = 39 }, "C = 40 in snapshot, 39 in config"},
		{"Seed", func(f *Fingerprint) { f.Seed = 2 }, "Seed = 1 in snapshot, 2 in config"},
		{"TrackLocal", func(f *Fingerprint) { f.TrackLocal = false }, "TrackLocal = true in snapshot, false in config"},
		{"TrackEta", func(f *Fingerprint) { f.TrackEta = true }, "TrackEta = false in snapshot, true in config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := base.Match(cfg)
			if !errors.Is(err, ErrMismatch) {
				t.Fatalf("err = %v, want ErrMismatch", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name the field: want substring %q", err, tc.want)
			}
		})
	}

	// All fields different: the error names each one.
	err := base.Match(Fingerprint{M: 1, C: 1, Seed: 9, TrackLocal: false, TrackEta: true})
	for _, field := range []string{"M = ", "C = ", "Seed = ", "TrackLocal = ", "TrackEta = "} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("multi-field mismatch error %q missing %q", err, field)
		}
	}
}
