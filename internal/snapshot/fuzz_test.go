package snapshot

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot: the decoder must never panic or allocate unboundedly,
// whatever bytes it is fed — malformed input returns an error. The seed
// corpus holds valid snapshots of both kinds, one of them carrying the
// degree tracker's live edges, so mutations explore deep decode paths
// rather than dying on the magic check.
func FuzzReadSnapshot(f *testing.F) {
	var eng bytes.Buffer
	if err := WriteEngine(&eng, testEngineState()); err != nil {
		f.Fatal(err)
	}
	var sh, deg bytes.Buffer
	if err := WriteSharded(&sh, testShardedState()); err != nil {
		f.Fatal(err)
	}
	if err := WriteSharded(&deg, testShardedStateWithDegrees()); err != nil {
		f.Fatal(err)
	}
	f.Add(eng.Bytes())
	f.Add(sh.Bytes())
	f.Add(deg.Bytes())
	f.Add([]byte("REPTSNAP"))
	f.Add(append(append([]byte{}, eng.Bytes()[:12]...), 0xff, 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		engSt, shSt, err := Read(bytes.NewReader(data))
		if err != nil {
			if engSt != nil || shSt != nil {
				t.Errorf("non-nil state alongside error %v", err)
			}
			return
		}
		if (engSt == nil) == (shSt == nil) {
			t.Errorf("success must yield exactly one state: engine=%v sharded=%v", engSt != nil, shSt != nil)
		}
		// A snapshot that decodes must re-encode canonically: write it
		// back out and decode again.
		var buf bytes.Buffer
		switch {
		case engSt != nil:
			if err := WriteEngine(&buf, engSt); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if _, err := ReadEngine(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
		case shSt != nil:
			if err := WriteSharded(&buf, shSt); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if _, err := ReadSharded(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
		}
	})
}
