package rept_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rept"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/wal"
)

func durableConfig() rept.ConcurrentConfig {
	return rept.ConcurrentConfig{
		M: 3, C: 9, Shards: 3, Seed: 41,
		TrackLocal: true, FullyDynamic: true, TrackDegrees: true,
	}
}

// durableStream is loop-free — self-loops are not logged, so their tally
// has checkpoint granularity across restarts — so the recovered estimator
// can be compared bit for bit against a reference fed the same prefix.
func durableStream(n int) []rept.Update {
	base := gen.Shuffle(gen.HolmeKim(900, 5, 0.4, 23), 7)
	ups := exper.DynStream(base, exper.DynOptions{Pattern: exper.Churn, DeleteFrac: 0.3, Seed: 7})
	if len(ups) < n {
		panic("durableStream: base graph too small")
	}
	return ups[:n]
}

// TestResumeDurableRoundTrip drives the full public lifecycle on a real
// directory: durable ingest with automatic compaction, clean close,
// reopen, verify the estimator picked up exactly where it stopped, ingest
// more, and confirm the final state matches a never-restarted reference.
func TestResumeDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ups := durableStream(4000)

	opt := rept.WALOptions{Dir: dir, SegmentBytes: 4096, CompactEvery: 1000}
	c, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Position(); got != 0 {
		t.Fatalf("fresh durable estimator at position %d, want 0", got)
	}
	for i := 0; i < 2000; i += 250 {
		if err := c.ApplyAllDurable(ups[i : i+250]); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WALStats(); st.DurablePos != 2000 {
		t.Fatalf("durable position %d, want 2000", st.DurablePos)
	}
	c.Close()

	c2, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Position(); got != 2000 {
		t.Fatalf("reopened at position %d, want 2000", got)
	}
	if err := c2.ApplyAllDurable(ups[2000:]); err != nil {
		t.Fatal(err)
	}

	ref, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ApplyAll(ups)

	var got, want bytes.Buffer
	if err := c2.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("restarted durable estimator differs from never-restarted reference")
	}
}

// TestResumeDurableManualCompaction exercises CompactWAL and verifies the
// checkpoint advances and recovery still lands on the right position.
func TestResumeDurableManualCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	opt := rept.WALOptions{Dir: dir, SegmentBytes: 2048}
	c, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	ups := durableStream(1500)
	if err := c.ApplyAllDurable(ups[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := c.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if st := c.WALStats(); st.CheckpointPos != 1000 {
		t.Fatalf("checkpoint at %d, want 1000", st.CheckpointPos)
	}
	if err := c.ApplyAllDurable(ups[1000:]); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Position(); got != 1500 {
		t.Fatalf("recovered position %d, want 1500", got)
	}
}

// TestResumeDurableRejectsForeignLog: reopening a log directory under a
// different statistical configuration must fail with ErrWALMismatch
// before any event replays.
func TestResumeDurableRejectsForeignLog(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	c, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAllDurable(durableStream(100)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	other := cfg
	other.Seed++
	if _, err := rept.ResumeDurable(other, rept.WALOptions{Dir: dir}); !errors.Is(err, rept.ErrWALMismatch) {
		t.Fatalf("resume under foreign config: %v, want ErrWALMismatch", err)
	}
}

// TestResumeDurableRejectsDeletionsWhenStatic: a log written by a
// fully-dynamic estimator must not replay into a static one.
func TestResumeDurableRejectsDeletionsWhenStatic(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	c, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAllDurable(durableStream(200)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	static := cfg
	static.FullyDynamic = false
	if _, err := rept.ResumeDurable(static, rept.WALOptions{Dir: dir}); !errors.Is(err, rept.ErrWALMismatch) {
		t.Fatalf("static resume of dynamic log: %v, want ErrWALMismatch", err)
	}
}

// TestDurableSelfLoopsNotLogged documents the self-loop limitation: loops
// are filtered before the log, so the SelfLoops tally has
// checkpoint granularity across restarts while Position is exact.
func TestDurableSelfLoopsNotLogged(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	c, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ups := []rept.Update{{U: 1, V: 2}, {U: 3, V: 3}, {U: 2, V: 4}}
	if err := c.ApplyAllDurable(ups); err != nil {
		t.Fatal(err)
	}
	if got := c.SelfLoops(); got != 1 {
		t.Fatalf("SelfLoops = %d, want 1", got)
	}
	if got := c.Position(); got != 2 {
		t.Fatalf("Position = %d, want 2 (loops are not stream events)", got)
	}
	c.Close()

	c2, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Position(); got != 2 {
		t.Fatalf("recovered Position = %d, want 2", got)
	}
	if got := c2.SelfLoops(); got != 0 {
		t.Fatalf("recovered SelfLoops = %d, want 0 (no checkpoint covered the loop)", got)
	}
	// After a checkpoint the tally persists.
	if err := c2.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	c2.Add(5, 5)
	c2.Close()

	c3, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := c3.SelfLoops(); got != 0 {
		t.Fatalf("post-checkpoint SelfLoops = %d, want 0 (loop arrived after the checkpoint)", got)
	}
}

// TestResumeDurableExactDegrees: the checkpoint carries the degree
// tracker's live-edge set, so after a restart the replayed tail drops a
// re-sent insertion and a deletion of a never-inserted edge exactly as
// the estimator that acknowledged them did. The exact layout (M = C = 1)
// makes the degree checkable by hand.
func TestResumeDurableExactDegrees(t *testing.T) {
	cfg := rept.ConcurrentConfig{M: 1, C: 1, Seed: 3, TrackLocal: true, TrackDegrees: true, FullyDynamic: true}
	opt := rept.WALOptions{Dir: t.TempDir()}
	c, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyAllDurable([]rept.Update{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}, {U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	// A client retry re-sends 1-2, and 2-5 was never inserted.
	if err := c.ApplyAllDurable([]rept.Update{{U: 1, V: 2}, {U: 2, V: 5, Del: true}}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := c.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartViews(rept.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	before := c.View().Stat(1)
	c.Close()

	c2, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var got bytes.Buffer
	if err := c2.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("recovered state differs from the state that acknowledged the events")
	}
	if _, err := c2.StartViews(rept.ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if after := c2.View().Stat(1); after != before || after.Degree != 2 {
		t.Errorf("recovered node 1 = %+v, acknowledging state had %+v (degree 2)", after, before)
	}
}

// TestResumeDurableFromCopiedSnapshot: backup and migration are a file
// copy. A Concurrent.WriteSnapshot image placed as the only file of an
// empty directory recovers at its position, logs a suffix that re-sends a
// still-live prefix edge, and after a second restart equals an
// uninterrupted estimator byte for byte.
func TestResumeDurableFromCopiedSnapshot(t *testing.T) {
	cfg := durableConfig()
	ups := durableStream(3000)
	cut := 1500
	src, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src.ApplyAll(ups[:cut])
	var img bytes.Buffer
	if err := src.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	src.Close()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.CheckpointName), img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	live := exper.LiveEdgesOf(ups[:cut])
	suffix := append([]rept.Update{{U: live[0].U, V: live[0].V}}, ups[cut:]...)
	opt := rept.WALOptions{Dir: dir}
	c, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Position(); got != uint64(cut) {
		t.Fatalf("recovered from the copied image at position %d, want %d", got, cut)
	}
	if err := c.ApplyAllDurable(suffix); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := rept.ResumeDurable(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ref, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ApplyAll(ups[:cut])
	ref.ApplyAll(suffix)

	var got, want bytes.Buffer
	if err := c2.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("state recovered from a copied snapshot differs from the uninterrupted estimator")
	}
}
