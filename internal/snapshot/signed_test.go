package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"rept/internal/graph"
)

// TestSignedCounterRoundTrip: transiently negative counters, the
// deletion tallies, and the random-pairing counters all survive an
// encode/decode cycle exactly.
func TestSignedCounterRoundTrip(t *testing.T) {
	st := &EngineState{
		Fingerprint: Fingerprint{M: 3, C: 2, Seed: -9, TrackLocal: true, TrackEta: true, FullyDynamic: true},
		Processed:   11,
		Deleted:     4,
		SelfLoops:   1,
		Procs: []ProcState{
			{
				Tau: -7, Eta: -123456789,
				Di: 2, Do: 1, Phantom: 3,
				Edges: []graph.Edge{{U: 1, V: 2}, {U: 2, V: 9}},
				Tcnt:  map[uint64]int32{graph.Key(1, 2): -3, graph.Key(2, 9): 0},
			},
			{
				Tau: 42, Eta: 0,
				Edges: []graph.Edge{},
				Tcnt:  map[uint64]int32{},
			},
		},
		TauV1: tableOf(map[graph.NodeID]int64{}),
		TauV2: tableOf(map[graph.NodeID]int64{1: -5, 2: 7, 9: 0}),
		EtaV:  tableOf(map[graph.NodeID]int64{2: -1}),
	}
	var buf bytes.Buffer
	if err := WriteEngine(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEngineState(got, st) {
		t.Fatalf("signed round trip diverged:\ngot  %+v\nwant %+v", got, st)
	}

	// Canonical encoding: re-encoding the decoded state is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteEngine(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding the decoded state changed the bytes")
	}
}

// TestFingerprintFullyDynamicMismatch: the FullyDynamic flag participates
// in fingerprint matching like every statistical field.
func TestFingerprintFullyDynamicMismatch(t *testing.T) {
	a := Fingerprint{M: 2, C: 2, Seed: 1}
	b := a
	b.FullyDynamic = true
	err := a.Match(b)
	if err == nil {
		t.Fatal("mismatch accepted")
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("FullyDynamic")) {
		t.Errorf("error %q does not name FullyDynamic", got)
	}
	if a.Match(a) != nil || b.Match(b) != nil {
		t.Error("self-match failed")
	}
}

// TestShardedDeletedTallyRoundTrip: the coordinator-level deleted tally
// is carried by sharded payloads.
func TestShardedDeletedTallyRoundTrip(t *testing.T) {
	st := &ShardedState{
		Fingerprint: Fingerprint{M: 2, C: 2, Seed: 5, FullyDynamic: true},
		ShardCount:  1,
		Processed:   9,
		Deleted:     3,
		SelfLoops:   0,
		Shards: []EngineState{{
			Fingerprint: Fingerprint{M: 2, C: 2, Seed: 77, FullyDynamic: true},
			Processed:   9,
			Deleted:     3,
			Procs: []ProcState{
				{Tau: -1, Edges: []graph.Edge{}},
				{Tau: 2, Edges: []graph.Edge{}},
			},
		}},
	}
	var buf bytes.Buffer
	if err := WriteSharded(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSharded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("sharded signed round trip diverged:\ngot  %+v\nwant %+v", got, st)
	}
}
