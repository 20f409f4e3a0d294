package rept_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

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
	if got := c.Processed(); got != 0 {
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
	if got := c2.Processed(); got != 2000 {
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
	if got := c2.Processed(); got != 1500 {
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

// TestResumeDurableRejectsConfigBeforeDir: a configuration with M or C
// below 1 fails before the log directory is created.
func TestResumeDurableRejectsConfigBeforeDir(t *testing.T) {
	for _, cfg := range []rept.ConcurrentConfig{{M: 0, C: 4}, {M: 4, C: 0}} {
		dir := filepath.Join(t.TempDir(), "wal")
		if _, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir}); err == nil {
			t.Fatalf("ResumeDurable(M=%d, C=%d) succeeded", cfg.M, cfg.C)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("ResumeDurable(M=%d, C=%d) left the log directory behind: stat = %v", cfg.M, cfg.C, err)
		}
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
	if got := c.Processed(); got != 2 {
		t.Fatalf("Position = %d, want 2 (loops are not stream events)", got)
	}
	c.Close()

	c2, err := rept.ResumeDurable(cfg, rept.WALOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Processed(); got != 2 {
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
	if got := c.Processed(); got != uint64(cut) {
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

// TestCompactWALFlightEvent: a compaction leaves exactly one checkpoint
// flight event, whose value is the position the checkpoint covers, and
// one observation in the compaction histogram.
func TestCompactWALFlightEvent(t *testing.T) {
	c, err := rept.ResumeDurable(durableConfig(), rept.WALOptions{Backend: wal.NewMemBackend()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ApplyAllDurable(durableStream(1000)); err != nil {
		t.Fatal(err)
	}
	if err := c.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, ev := range c.Telemetry().Flight().Events() {
		if ev.Kind == "checkpoint" {
			got = append(got, ev.Value)
		}
	}
	if want := c.WALStats().CheckpointPos; len(got) != 1 || got[0] != want {
		t.Fatalf("checkpoint flight events carry positions %v, want exactly [%d]", got, want)
	}
	if n := c.Telemetry().Pipeline().WALCompact.Count(); n != 1 {
		t.Fatalf("compaction histogram holds %d observations, want 1", n)
	}
}

// waitWAL polls the estimator's log until cond holds, failing the test
// after 10 s with the last stats it read.
func waitWAL(t *testing.T, c *rept.Concurrent, cond func(rept.WALStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(c.WALStats()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("log still at %+v after 10s", c.WALStats())
		}
	}
}

// TestDurableCompactsWithoutWaiters: automatic compaction keys on the
// log's group commits, not on callers that wait for them, so events fed
// through ApplyAll fold into checkpoints and trim the segments they
// cover, under per-batch and interval sync alike.
func TestDurableCompactsWithoutWaiters(t *testing.T) {
	ups := durableStream(6000)
	for _, interval := range []time.Duration{0, 5 * time.Millisecond} {
		c, err := rept.ResumeDurable(durableConfig(), rept.WALOptions{
			Backend:      wal.NewMemBackend(),
			SyncInterval: interval,
			SegmentBytes: 4096,
			CompactEvery: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ups); i += 250 {
			c.ApplyAll(ups[i : i+250])
		}
		waitWAL(t, c, func(st rept.WALStats) bool { return st.CheckpointPos >= 5000 && st.Segments <= 2 })
		c.Close()
	}
}

// holdFirstCheckpoint is a WAL backend whose first checkpoint creation
// blocks until release is closed, and which counts every checkpoint
// creation.
type holdFirstCheckpoint struct {
	wal.Backend
	entered, release chan struct{}
	creates          atomic.Int32
}

func (b *holdFirstCheckpoint) Create(name string) (wal.File, error) {
	if name == wal.CheckpointTmp && b.creates.Add(1) == 1 {
		close(b.entered)
		<-b.release
	}
	return b.Backend.Create(name)
}

// TestDurableStaleTriggerCompactsOnce: group commits made while a
// compaction runs still see the old checkpoint and queue a trigger, but
// the checkpoint that compaction installs covers their events, so one
// crossing of CompactEvery writes one checkpoint.
func TestDurableStaleTriggerCompactsOnce(t *testing.T) {
	be := &holdFirstCheckpoint{Backend: wal.NewMemBackend(), entered: make(chan struct{}), release: make(chan struct{})}
	c, err := rept.ResumeDurable(durableConfig(), rept.WALOptions{Backend: be, CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	released := false
	defer func() {
		if !released { // let a failed test's Close stop the compactor
			close(be.release)
		}
	}()
	ups := durableStream(1150)
	if err := c.ApplyAllDurable(ups[:1000]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-be.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no compaction started 10s after CompactEvery durable events")
	}
	for i := 1000; i < len(ups); i += 50 {
		if err := c.ApplyAllDurable(ups[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	close(be.release)
	released = true
	waitWAL(t, c, func(st rept.WALStats) bool { return st.CheckpointPos == uint64(len(ups)) })
	c.Close()
	if n := be.creates.Load(); n != 1 {
		t.Fatalf("%d checkpoints written for one crossing of CompactEvery, want 1", n)
	}
}

// TestDurableDownsampleCompactCrash is where an adaptation, automatic
// compaction, a crash and recovery meet. Downsample is not a log record,
// so only a checkpoint taken after it carries the new sample shift; once
// compaction covers it, the recovered estimator has the shift and, fed
// the rest of the stream, equals a never-crashed reference that
// downsampled at the same position. The ApplyAll run shows that events
// nobody waited for count towards compaction too.
func TestDurableDownsampleCompactCrash(t *testing.T) {
	const cut, crashAt, total = 2500, 5000, 6000
	cfg := durableConfig()
	ups := durableStream(total)

	ref, err := rept.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ApplyAll(ups[:cut])
	if err := ref.Downsample(1); err != nil {
		t.Fatal(err)
	}
	ref.ApplyAll(ups[cut:])
	var want bytes.Buffer
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		feed func(*rept.Concurrent, []rept.Update) error
	}{
		{"ApplyAll", func(c *rept.Concurrent, ups []rept.Update) error { c.ApplyAll(ups); return nil }},
		{"ApplyAllDurable", (*rept.Concurrent).ApplyAllDurable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := wal.NewMemBackend()
			opt := rept.WALOptions{Backend: be, CompactEvery: 1000}
			feed := func(c *rept.Concurrent, ups []rept.Update) {
				t.Helper()
				for len(ups) > 0 {
					n := min(250, len(ups))
					if err := tc.feed(c, ups[:n]); err != nil {
						t.Fatal(err)
					}
					ups = ups[n:]
				}
			}
			c, err := rept.ResumeDurable(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			feed(c, ups[:cut])
			if err := c.Downsample(1); err != nil {
				t.Fatal(err)
			}
			feed(c, ups[cut:crashAt])
			waitWAL(t, c, func(st rept.WALStats) bool { return st.CheckpointPos >= 3500 })
			be.Crash()
			c.Close()

			c2, err := rept.ResumeDurable(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got := c2.SampleShift(); got != 1 {
				t.Fatalf("recovered at sample shift %d, want 1", got)
			}
			pos := c2.Processed()
			if pos < 3500 || pos > crashAt {
				t.Fatalf("recovered at position %d, want one in [3500, %d]", pos, crashAt)
			}
			feed(c2, ups[pos:])
			var got bytes.Buffer
			if err := c2.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("recovered estimator differs from the reference that downsampled at the same position")
			}
		})
	}
}
