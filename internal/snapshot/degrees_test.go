package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"rept/internal/graph"
)

// fixCRC recomputes the trailing checksum after a deliberate patch, so a
// test reaches the structural validation instead of the CRC gate.
func fixCRC(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
}

func testShardedStateWithDegrees() *ShardedState {
	st := testShardedState()
	st.TrackDegrees = true
	st.Degrees = []graph.Edge{{U: 9, V: 1}, {U: 2, V: 4000}, {U: 1, V: 2}, {U: 0, V: 7}}
	return st
}

func encodeSharded(t *testing.T, st *ShardedState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSharded(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedDegreesRoundTrip: the degree tracker's live-edge set comes
// back as the same edges, canonical and sorted by key.
func TestShardedDegreesRoundTrip(t *testing.T) {
	st := testShardedStateWithDegrees()
	got, err := ReadSharded(bytes.NewReader(encodeSharded(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.TrackDegrees {
		t.Fatal("TrackDegrees lost in round trip")
	}
	want := []graph.Edge{{U: 0, V: 7}, {U: 1, V: 2}, {U: 1, V: 9}, {U: 2, V: 4000}}
	if !reflect.DeepEqual(got.Degrees, want) {
		t.Errorf("live edges = %v, want %v", got.Degrees, want)
	}

	// Without tracking, the flag round-trips false and the set stays nil.
	plain, err := ReadSharded(bytes.NewReader(encodeSharded(t, testShardedState())))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TrackDegrees || plain.Degrees != nil {
		t.Errorf("degree-less round trip = tracked %v edges %v", plain.TrackDegrees, plain.Degrees)
	}
}

// TestShardedDegreesCanonical: the live-edge set encodes to the same
// bytes whatever order the tracker's table held it in.
func TestShardedDegreesCanonical(t *testing.T) {
	a := encodeSharded(t, testShardedStateWithDegrees())
	st := testShardedStateWithDegrees()
	for i := range st.Degrees {
		st.Degrees = append(st.Degrees[1:], st.Degrees[0])
		if !bytes.Equal(a, encodeSharded(t, st)) {
			t.Fatalf("live-edge encoding depends on input order (rotation %d)", i+1)
		}
	}
}

// TestShardedDegreesCorruption: flipping any byte of a degree-bearing
// snapshot is detected (CRC at worst, structural checks at best).
func TestShardedDegreesCorruption(t *testing.T) {
	data := encodeSharded(t, testShardedStateWithDegrees())
	for i := range data {
		data[i] ^= 0x40
		if _, err := ReadSharded(bytes.NewReader(data)); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		data[i] ^= 0x40
	}
	if _, err := ReadSharded(bytes.NewReader(data)); err != nil {
		t.Fatalf("undamaged snapshot no longer reads: %v", err)
	}
}

// TestShardedDegreesRejectBadKeys: a live-edge key that is a self-loop
// or not canonical (U > V) is ErrCorrupt; the degree tracker stores
// neither, so only a damaged or forged snapshot carries one.
func TestShardedDegreesRejectBadKeys(t *testing.T) {
	loop := testShardedStateWithDegrees()
	loop.Degrees = []graph.Edge{{U: 3, V: 3}}
	if _, err := ReadSharded(bytes.NewReader(encodeSharded(t, loop))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "self-loop") {
		t.Errorf("self-loop live edge: err = %v, want self-loop ErrCorrupt", err)
	}

	// The trackDegrees flag is the first byte where the encodings with
	// and without live edges differ; the edge count and the one key
	// follow it. Swap the key's halves and refresh the CRC.
	one := testShardedStateWithDegrees()
	one.Degrees = []graph.Edge{{U: 1, V: 2}}
	data := encodeSharded(t, one)
	plain := encodeSharded(t, testShardedState())
	i := 0
	for data[i] == plain[i] {
		i++
	}
	key := binary.AppendUvarint(nil, graph.Key(1, 2))
	swapped := binary.AppendUvarint(nil, 2<<32|1)
	if data[i+1] != 1 || !bytes.Equal(data[i+2:i+2+len(key)], key) || len(swapped) != len(key) {
		t.Fatal("live-edge section not where expected")
	}
	copy(data[i+2:], swapped)
	fixCRC(data)
	if _, err := ReadSharded(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "not canonical") {
		t.Errorf("non-canonical live edge: err = %v, want not-canonical ErrCorrupt", err)
	}
}

func TestVersionBounds(t *testing.T) {
	data := encodeSharded(t, testShardedState())
	// Byte 8 is the single-byte version varint.
	if data[8] != Version {
		t.Fatalf("version byte = %d, want %d", data[8], Version)
	}
	for _, v := range []byte{0, 3, 4, 5, Version + 1} {
		bad := append([]byte{}, data...)
		bad[8] = v
		want := fmt.Sprintf("unsupported format version %d", v)
		if _, err := ReadSharded(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: err = %v, want %q", v, err, want)
		}
	}
}
