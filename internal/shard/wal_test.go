package shard

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rept/internal/gen"
	"rept/internal/graph"
	"rept/internal/wal"
)

// newDurable stands a coordinator up on a WAL directory the way the
// public layer does: recover, restore the checkpoint (if any), replay
// the tail into the engines, then attach the log. It returns the
// coordinator and its log.
func newDurable(t *testing.T, cfg Config, be wal.Backend, interval time.Duration, opt wal.Options) (*Sharded, *wal.Log) {
	t.Helper()
	rec, err := wal.Recover(be, cfg.FingerprintHash())
	if err != nil {
		t.Fatal(err)
	}
	var s *Sharded
	if rec.Snapshot != nil {
		s, err = Resume(cfg, bytes.NewReader(rec.Snapshot))
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	pos, err := rec.Replay(s.Position(), func(ups []graph.Update) error {
		s.ApplyBatch(ups)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Position(); got != pos {
		t.Fatalf("replayed coordinator at position %d, log ends at %d", got, pos)
	}
	lg, err := rec.Log(opt)
	if err != nil {
		t.Fatal(err)
	}
	s.StartWAL(lg, interval)
	return s, lg
}

// durableTestConfig keeps the tests fast but multi-shard.
func durableTestConfig() Config {
	return Config{
		M: 3, C: 6, Shards: 2, Seed: 17,
		TrackLocal: true, FullyDynamic: true, TrackDegrees: true,
		BatchSize: 64, QueueLen: 4,
	}
}

// testStream builds a loop-free fully-dynamic stream (self-loops are
// deliberately absent: they are not logged, and these tests compare
// snapshots bit for bit).
func walStream(n int) []graph.Update {
	base := gen.Shuffle(gen.HolmeKim(400, 6, 0.4, 9), 4)
	ups := make([]graph.Update, 0, n)
	for len(ups) < n {
		k := len(ups) % len(base)
		e := base[k]
		ups = append(ups, graph.Update{U: e.U, V: e.V})
		if len(ups) < n && k%3 == 2 {
			ups = append(ups, graph.Update{U: e.U, V: e.V, Del: true})
		}
	}
	return ups[:n]
}

// snapshotBytes checkpoints s to a buffer.
func snapshotBytes(t *testing.T, s *Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceBytes feeds exactly ups into a fresh coordinator and returns
// its snapshot — the hand-replayed reference durable recovery must match
// bit for bit.
func referenceBytes(t *testing.T, cfg Config, ups []graph.Update) []byte {
	t.Helper()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ApplyBatch(ups)
	return snapshotBytes(t, ref)
}

func TestDurableIngestCrashRecoveryBitForBit(t *testing.T) {
	cfg := durableTestConfig()
	be := wal.NewMemBackend()
	s, _ := newDurable(t, cfg, be, 0, wal.Options{SegmentBytes: 2048})

	ups := walStream(3000)
	var acked uint64
	for i := 0; i < len(ups); i += 100 {
		end := min(i+100, len(ups))
		if err := s.ApplyBatchDurable(ups[i:end]); err != nil {
			t.Fatal(err)
		}
		acked += uint64(end - i)
		if i == 1500 {
			// Crash mid-stream: everything acknowledged so far must
			// survive; the estimator keeps running on dead storage (its
			// memory state is fine) but stops acknowledging.
			be.Crash()
			break
		}
	}
	s.Close()

	s2, _ := newDurable(t, cfg, be, 0, wal.Options{SegmentBytes: 2048})
	defer s2.Close()
	pos := s2.Position()
	if pos < acked {
		t.Fatalf("recovered position %d < acknowledged %d: acknowledged events lost", pos, acked)
	}
	got := snapshotBytes(t, s2)
	want := referenceBytes(t, cfg, ups[:pos])
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from reference fed the same %d-event prefix", pos)
	}
}

func TestDurableRecoveryWithCompaction(t *testing.T) {
	cfg := durableTestConfig()
	be := wal.NewMemBackend()
	s, lg := newDurable(t, cfg, be, 0, wal.Options{SegmentBytes: 1024})

	ups := walStream(2000)
	if err := s.ApplyBatchDurable(ups[:1200]); err != nil {
		t.Fatal(err)
	}
	// Fold the prefix into a checkpoint, then keep ingesting.
	if err := lg.Compact(s.WriteSnapshotPos); err != nil {
		t.Fatal(err)
	}
	if st := lg.Stats(); st.CheckpointPos != 1200 {
		t.Fatalf("checkpoint covers %d, want 1200", st.CheckpointPos)
	}
	if err := s.ApplyBatchDurable(ups[1200:]); err != nil {
		t.Fatal(err)
	}
	be.Crash()
	s.Close()

	s2, _ := newDurable(t, cfg, be, 0, wal.Options{SegmentBytes: 1024})
	defer s2.Close()
	if pos := s2.Position(); pos != 2000 {
		t.Fatalf("recovered position %d, want 2000", pos)
	}
	got := snapshotBytes(t, s2)
	want := referenceBytes(t, cfg, ups)
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot+tail recovery differs from reference")
	}
}

func TestDurableIngestRefusesAfterSyncFailure(t *testing.T) {
	cfg := durableTestConfig()
	be := wal.NewMemBackend()
	s, lg := newDurable(t, cfg, be, 0, wal.Options{})
	defer s.Close()

	ups := walStream(300)
	if err := s.ApplyBatchDurable(ups[:100]); err != nil {
		t.Fatal(err)
	}
	be.FailSync(1)
	if err := s.ApplyBatchDurable(ups[100:200]); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("durable ingest under failed sync: %v, want ErrInjected", err)
	}
	// The failure is sticky: later calls must refuse too, and the
	// durable position must not move.
	if err := s.ApplyBatchDurable(ups[200:]); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("durable ingest after failed sync: %v, want sticky ErrInjected", err)
	}
	if st := lg.Stats(); st.DurablePos != 100 {
		t.Fatalf("durable position %d after failed sync, want 100", st.DurablePos)
	}
	if !lg.Stats().Failed {
		t.Fatal("log stats do not report the failure")
	}
}

func TestDurableIntervalModeAcksOnAppend(t *testing.T) {
	cfg := durableTestConfig()
	be := wal.NewMemBackend()
	// An hour-long interval: no sync will happen during the test, so a
	// nil return proves acknowledgment keys on append, and Close proves
	// the final group commit.
	s, lg := newDurable(t, cfg, be, time.Hour, wal.Options{})

	ups := walStream(500)
	if err := s.ApplyBatchDurable(ups); err != nil {
		t.Fatal(err)
	}
	st := lg.Stats()
	if st.AppendedPos != 500 {
		t.Fatalf("appended position %d, want 500", st.AppendedPos)
	}
	if st.DurablePos != 0 {
		t.Fatalf("durable position %d before any sync, want 0", st.DurablePos)
	}
	s.Close()
	if st := lg.Stats(); st.DurablePos != 500 {
		t.Fatalf("durable position %d after Close, want 500 (shutdown group commit)", st.DurablePos)
	}
}

func TestDurableFallsBackWithoutWAL(t *testing.T) {
	s, err := New(durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ApplyBatchDurable(walStream(100)); err != nil {
		t.Fatal(err)
	}
	if got := s.Position(); got != 100 {
		t.Fatalf("position %d, want 100", got)
	}
}

// TestWALAppendSteadyStateZeroAlloc gates the durable ingest path end to
// end: with the batch free list and the log's record buffer warm, an
// ApplyBatchDurable block sized exactly to the batch length — so every
// call detaches one full batch, the WAL goroutine appends it, syncs, and
// releases the waiter — must not allocate on any goroutine, including
// the logger (AllocsPerRun counts them all). The log writes through the
// real disk backend, so the measured path includes the fsync.
func TestWALAppendSteadyStateZeroAlloc(t *testing.T) {
	const batchLen = 256
	be, err := wal.NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		M: 2, C: 4, Seed: 7,
		FullyDynamic: true, TrackDegrees: true,
		BatchSize: batchLen, QueueLen: 4,
	}
	s, _ := newDurable(t, cfg, be, 0, wal.Options{})
	defer s.Close()

	base := gen.Shuffle(gen.HolmeKim(300, 6, 0.4, 5), 2)
	s.ApplyBatch(graph.Inserts(base))

	slice := base[:batchLen/2]
	block := make([]graph.Update, 0, batchLen)
	for i := len(slice) - 1; i >= 0; i-- {
		block = append(block, graph.Update{U: slice[i].U, V: slice[i].V, Del: true})
	}
	for _, ed := range slice {
		block = append(block, graph.Update{U: ed.U, V: ed.V})
	}

	for i := 0; i < 64; i++ {
		if err := s.ApplyBatchDurable(block); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := s.ApplyBatchDurable(block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state durable ingest allocates %.1f per %d-event batch, want 0", allocs, len(block))
	}
}
