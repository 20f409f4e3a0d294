package shard

import (
	"bytes"
	"errors"
	"sync"
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

// stallBackend is a MemBackend whose files hold the WAL consumer up:
// every write first sleeps delay, and every sync waits while a test
// holds gate.
type stallBackend struct {
	*wal.MemBackend
	delay time.Duration
	gate  sync.Mutex
}

func (b *stallBackend) Create(name string) (wal.File, error) {
	f, err := b.MemBackend.Create(name)
	return stallFile{File: f, b: b}, err
}

type stallFile struct {
	wal.File
	b *stallBackend
}

func (f stallFile) Write(p []byte) (int, error) {
	time.Sleep(f.b.delay)
	return f.File.Write(p)
}

func (f stallFile) Sync() error {
	f.b.gate.Lock()
	defer f.b.gate.Unlock()
	return f.File.Sync()
}

// TestWALIntervalSyncUnderLoad: in interval mode the logger syncs on its
// period even when its queue never runs dry, so the loss window stays
// bounded under load; once ingest stops, the next tick syncs the tail.
func TestWALIntervalSyncUnderLoad(t *testing.T) {
	const interval = 5 * time.Millisecond
	be := &stallBackend{MemBackend: wal.NewMemBackend(), delay: 100 * time.Microsecond}
	s, lg := newDurable(t, durableTestConfig(), be, interval, wal.Options{})
	defer s.Close()

	// Slow log writes make the WAL consumer the bottleneck, so a producer
	// feeding back to back keeps its queue full for 60 periods.
	block := walStream(16)
	start := time.Now()
	for time.Since(start) < 60*interval {
		s.ApplyBatch(block)
	}
	if st := lg.Stats(); st.DurablePos == 0 {
		t.Fatalf("no sync after %v of back-to-back batches at a %v interval (appended %d)",
			time.Since(start), interval, st.AppendedPos)
	}
	waitFor(t, func() bool { return lg.Stats().DurablePos == s.Position() })
}

// TestQueueBackpressure: a consumer that falls QueueLen batches behind
// blocks the producer instead of dropping or buffering without bound,
// the producer resumes once the consumer drains, and Close delivers every
// queued batch: the log ends holding and syncing every event.
func TestQueueBackpressure(t *testing.T) {
	cfg := durableTestConfig()
	cfg.BatchSize, cfg.QueueLen = 16, 2
	be := &stallBackend{MemBackend: wal.NewMemBackend()}
	s, lg := newDurable(t, cfg, be, 0, wal.Options{})

	// Once the first batch is appended with nothing queued behind it, the
	// WAL consumer is in its group commit, stalled on the locked gate.
	be.gate.Lock()
	n := cfg.BatchSize
	ups := walStream(10 * n)
	s.ApplyBatch(ups[:n])
	waitFor(t, func() bool { return lg.Stats().AppendedPos == uint64(n) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := n; i < len(ups); i += n {
			s.ApplyBatch(ups[i : i+n])
		}
	}()
	q := s.queues[len(s.queues)-1]
	waitFor(t, func() bool { return len(q) == cap(q) })
	select {
	case <-done:
		t.Fatal("producer finished while the WAL consumer was stalled")
	case <-time.After(20 * time.Millisecond):
	}
	be.gate.Unlock()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the WAL consumer resumed")
	}
	s.Close()
	if st := lg.Stats(); st.AppendedPos != uint64(len(ups)) || st.DurablePos != uint64(len(ups)) {
		t.Fatalf("log after Close: appended %d, durable %d, want %d", st.AppendedPos, st.DurablePos, len(ups))
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition still false after 10s")
		}
	}
}

// TestTinyQueuesOneSequence: producers inserting and producers deleting
// the same edges race through 1-deep queues and 16-event segments, with
// the degree tracker and the WAL logger as consumers beside the engines.
// Which edges end up live depends on the delivery order, and every
// consumer must see one order, so replaying the log into a fresh
// coordinator reproduces the live coordinator's snapshot bit for bit.
func TestTinyQueuesOneSequence(t *testing.T) {
	cfg := durableTestConfig()
	cfg.BatchSize, cfg.QueueLen = 16, 1
	be := wal.NewMemBackend()
	s, _ := newDurable(t, cfg, be, 0, wal.Options{})

	edges := gen.Shuffle(gen.HolmeKim(400, 6, 0.4, 9), 4)
	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(del bool) {
			defer wg.Done()
			body := make([]graph.Update, 0, 24)
			for i := 0; i < len(edges); i += 24 {
				body = body[:0]
				for _, e := range edges[i:min(i+24, len(edges))] {
					body = append(body, graph.Update{U: e.U, V: e.V, Del: del})
				}
				s.ApplyBatch(body)
			}
		}(p%2 == 1)
	}
	wg.Wait()
	want := snapshotBytes(t, s)
	s.Close()

	replayed, _ := newDurable(t, cfg, be, 0, wal.Options{})
	defer replayed.Close()
	if got := replayed.Position(); got != producers*uint64(len(edges)) {
		t.Fatalf("replayed position %d, want %d", got, producers*len(edges))
	}
	if !bytes.Equal(snapshotBytes(t, replayed), want) {
		t.Fatal("replaying the log does not reproduce the engines' state: consumers saw different sequences")
	}
}
