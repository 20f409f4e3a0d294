package rept

import (
	"math"
	"testing"

	"rept/internal/wal"
)

// TestCompactDue: a compaction is due once CompactEvery durable events
// lie past the checkpoint, never while the checkpoint is ahead of the
// durable position, and never for a CompactEvery so large that adding it
// to the checkpoint position would wrap.
func TestCompactDue(t *testing.T) {
	for _, tc := range []struct {
		durable, ckpt, every uint64
		want                 bool
	}{
		{durable: 1000, ckpt: 0, every: 1000, want: true},
		{durable: 999, ckpt: 0, every: 1000, want: false},
		{durable: 2500, ckpt: 1000, every: 1000, want: true},
		{durable: 1999, ckpt: 1000, every: 1000, want: false},
		{durable: 900, ckpt: 1000, every: 1, want: false},
		{durable: 900, ckpt: 1000, every: math.MaxUint64, want: false},
		{durable: 1 << 40, ckpt: 1000, every: math.MaxUint64, want: false},
		{durable: 1 << 40, ckpt: 1000, every: math.MaxUint64 - 999, want: false},
	} {
		st := wal.Stats{DurablePos: tc.durable, CheckpointPos: tc.ckpt}
		if got := compactDue(st, tc.every); got != tc.want {
			t.Errorf("compactDue(durable %d, checkpoint %d, every %d) = %v, want %v", tc.durable, tc.ckpt, tc.every, got, tc.want)
		}
	}
}
